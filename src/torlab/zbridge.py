"""Bridge between graded current modules and their dressed Z-algebras.

A CkModule carries root fields x_beta(r, z), Cartan fields beta(r, z)
and central fields k_i(r, z^m) at a fixed nonzero level k, with the
factorization property through k_0.  Stripping the Heisenberg
exponentials E^-(beta, z) x_beta(r, z) E^+(beta, z) yields Z-operators
acting on the vacuum space Omega (the joint kernel of the positive
Cartan modes); conversely a Z-module W rebuilds a current module on
M(k) (x) W by tensoring the dressing exponentials back on.  Both
directions, the category conditions and the quadratic Z-relations are
verified coefficient-by-coefficient on truncation windows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from . import checks
from .distops import (DeltaRelation, DeltaTerm, FieldFamily, FockSpace,
                      HeisenbergField, IdentityField, ProductField,
                      ScaledField, SumField, TruncationWindow, comb_scale,
                      comb_sub, dressing_operator)
from .fockhom import (HomogeneousModule, ZeroModeTimesField, _mode_multisets,
                      window_states)
from .linalg import nullspace, rank
from .rootsys import GElement
from .scalar import Cyc, cyc_root_of_unity


# ---------------------------------------------------------------------------
# twist data (trivial for the untwisted bridge, overridable for m > 1)
# ---------------------------------------------------------------------------


class TwistData:
    """Automorphism data entering the quadratic relations: the order m,
    the root action theta^p and the eta scalars.  The default is the
    identity twist of order 1."""

    def __init__(self, m: int = 1):
        self.m = m

    def theta_root(self, p, beta):
        return beta

    def eta(self, p, beta) -> Cyc:
        return Cyc.one()

    def root_of_unity(self, power) -> Cyc:
        return cyc_root_of_unity(self.m, power)


# ---------------------------------------------------------------------------
# module containers
# ---------------------------------------------------------------------------


class CkModule:
    """A level-k current module presented through its field families.

    x_fn(beta, rvec), beta_fn(vec, rvec) and k_fn(i, rvec) build the
    root, Cartan and central fields; vec is a label-coordinate vector,
    beta a root tuple.  heis_vecs(beta) embeds a root into coordinates.
    """

    def __init__(self, space: FockSpace, k, twist: TwistData, rs, lat, alg,
                 x_fn, beta_fn, k_fn, name="Ck"):
        self.space = space
        self.k = k if isinstance(k, Cyc) else Cyc.rational(k)
        self.twist = twist
        self.m = twist.m
        self.rs = rs
        self.lat = lat
        self.alg = alg
        self.N = lat.N
        self._x_fn = x_fn
        self._beta_fn = beta_fn
        self._k_fn = k_fn
        self.name = name
        self._cache = {}

    def zero_r(self):
        return (0,) * self.N

    def x(self, beta, rvec) -> FieldFamily:
        key = ("x", tuple(beta), tuple(rvec))
        if key not in self._cache:
            self._cache[key] = self._x_fn(tuple(beta), tuple(rvec))
        return self._cache[key]

    def beta_field(self, vec, rvec) -> FieldFamily:
        key = ("b", tuple(vec), tuple(rvec))
        if key not in self._cache:
            self._cache[key] = self._beta_fn(tuple(vec), tuple(rvec))
        return self._cache[key]

    def kf(self, i, rvec) -> FieldFamily:
        key = ("k", i, tuple(rvec))
        if key not in self._cache:
            self._cache[key] = self._k_fn(i, tuple(rvec))
        return self._cache[key]

    def root_vec(self, beta):
        return self.lat.embed_root(beta)

    def delta_coord(self, i) -> int:
        """Label coordinate read by d_i (1-based i)."""
        return self.rs.rank + (i - 1)

    def form_xx(self, beta) -> Cyc:
        """<x_beta, x_-beta> in the Chevalley normalization."""
        return self.alg.form(GElement.x(tuple(beta)),
                             GElement.x(tuple(-c for c in beta)))


class DkModule:
    """A Z-algebra module: Z-fields and central fields on a state space,
    together with the window basis of the space they act on."""

    def __init__(self, space: FockSpace, k, twist: TwistData, rs, lat, alg,
                 z_fn, k_fn, omega_states, name="Dk"):
        self.space = space
        self.k = k if isinstance(k, Cyc) else Cyc.rational(k)
        self.twist = twist
        self.m = twist.m
        self.rs = rs
        self.lat = lat
        self.alg = alg
        self.N = lat.N
        self._z_fn = z_fn
        self._k_fn = k_fn
        self.omega_states = list(omega_states)
        self.name = name
        self._cache = {}

    def zero_r(self):
        return (0,) * self.N

    def z(self, beta, rvec) -> FieldFamily:
        key = ("z", tuple(beta), tuple(rvec))
        if key not in self._cache:
            self._cache[key] = self._z_fn(tuple(beta), tuple(rvec))
        return self._cache[key]

    def kf(self, i, rvec) -> FieldFamily:
        key = ("k", i, tuple(rvec))
        if key not in self._cache:
            self._cache[key] = self._k_fn(i, tuple(rvec))
        return self._cache[key]

    def root_vec(self, beta):
        return self.lat.embed_root(beta)

    def delta_coord(self, i) -> int:
        return self.rs.rank + (i - 1)

    def form_xx(self, beta) -> Cyc:
        return self.alg.form(GElement.x(tuple(beta)),
                             GElement.x(tuple(-c for c in beta)))


class HeisenbergVerma:
    """Level-k Fock model of the graded Heisenberg algebra: creation
    modes in the given directions with [h(i), g(-i)] = i k <h, g>."""

    def __init__(self, gram, dirs, k):
        self.k = Fraction(k)
        if not self.k:
            raise ValueError("the Verma module needs a nonzero level")
        self.space = FockSpace(gram, dirs, mode_scale=self.k, weight=1)

    def vacuum(self):
        return self.space.vacuum()


# ---------------------------------------------------------------------------
# the concrete untwisted instance: the homogeneous Fock module
# ---------------------------------------------------------------------------


def homogeneous_Ck(mod: HomogeneousModule) -> CkModule:
    """V(Gamma) as a level-1 current module: the root fields are the
    fully dressed vertex operators E^-(-b) Z_lat(b, r) E^+(-b)."""
    space = mod.space

    def x_fn(beta, rvec):
        vec = mod.lat.embed_root(beta)
        neg = tuple(-c for c in vec)
        em = dressing_operator(space, -1, neg, 1)
        ep = dressing_operator(space, 1, neg, 1)
        inner = ProductField(mod.z(beta, rvec), ep)
        return ProductField(em, inner, label="x%r%r" % (beta, rvec))

    def beta_fn(vec, rvec):
        return mod.heis(vec, rvec)

    return CkModule(space, 1, TwistData(1), mod.rs, mod.lat, mod.alg,
                    x_fn, beta_fn, mod.kf, name="V(Gamma)")


# ---------------------------------------------------------------------------
# Omega_V: exact joint kernel of the positive Cartan modes
# ---------------------------------------------------------------------------


def _cartan_dirs(mod: CkModule):
    """Heisenberg directions spanned by the Cartan of the simple part."""
    return [d for d in mod.space.heis_dirs if d < mod.rs.rank]


def omega_basis(mod: CkModule, window: TruncationWindow):
    """Window basis of Omega = joint kernel of h(i), i > 0, h Cartan.

    Solved slice by slice with exact linear algebra: a slice is a fixed
    label and total mode degree, and the positive modes map it into
    lower slices.  Returns (states, entries): the kernel states plus a
    report asserting every kernel vector is a single basis state.
    """
    space = mod.space
    dirs = _cartan_dirs(mod)
    states = window_states(space, window)
    slices = {}
    for s in states:
        t = sum(n for _, n in s[1])
        slices.setdefault((s[0], t), []).append(s)
    kernel = []
    pure = True
    for (label, t), basis in sorted(slices.items()):
        if t == 0:
            kernel.extend(basis)
            continue
        # rows: images under every h_d(i), i = 1..t, stacked
        cols = []
        targets = {}
        rows_per_state = []
        for s in basis:
            images = {}
            for d in dirs:
                vec = space.dir_vec(d)
                for i in range(1, t + 1):
                    out = space.heisenberg_act(vec, i, {s: Cyc.one()})
                    for w, c in out.items():
                        images[(d, i, w)] = images.get((d, i, w), Cyc.zero()) + c
            rows_per_state.append(images)
            for key in images:
                if key not in targets:
                    targets[key] = len(targets)
        mat = [[Cyc.zero()] * len(basis) for _ in range(len(targets))]
        for j, images in enumerate(rows_per_state):
            for key, c in images.items():
                mat[targets[key]][j] = c
        for vec in nullspace(mat):
            support = [basis[j] for j, c in enumerate(vec) if c]
            if len(support) != 1:
                pure = False
            kernel.extend(support)
    return kernel, pure


# ---------------------------------------------------------------------------
# dressing both ways
# ---------------------------------------------------------------------------


class RestrictedField(FieldFamily):
    """1 (x) F on M(k) (x) W realized inside the same Fock space: F acts
    on the label and the non-Cartan modes, the Cartan modes ride along."""

    def __init__(self, base, cartan_dirs, label=None):
        super().__init__()
        self.base = base
        self.cartan = frozenset(cartan_dirs)
        self.shift = base.shift
        self.space = base.space
        self.label = label or ("1x" + base.label)

    def _split(self, state):
        label, modes = state
        mk = tuple(mo for mo in modes if mo[0] in self.cartan)
        w = tuple(mo for mo in modes if mo[0] not in self.cartan)
        return mk, (label, w)

    def max_mode(self, state):
        return self.base.max_mode(self._split(state)[1])

    def mode_state(self, n, state):
        mk, wstate = self._split(state)
        out = {}
        for (label, modes), c in self.base.mode_memo(n, wstate).items():
            merged = (label, tuple(sorted(modes + mk)))
            out[merged] = out.get(merged, Cyc.zero()) + c
        return {k: v for k, v in out.items() if v}


def to_Zmodule(mod: CkModule, window: TruncationWindow) -> DkModule:
    """Dress the root fields into Z-operators and restrict to Omega."""
    if not mod.k:
        raise ValueError("to_Zmodule needs a nonzero level k")
    space = mod.space
    kval = mod.k.as_fraction()
    omega, pure = omega_basis(mod, window)
    if not pure:
        raise ValueError("window kernel is not spanned by basis states")

    def z_fn(beta, rvec):
        vec = mod.root_vec(beta)
        em = dressing_operator(space, -1, vec, kval, mod.m)
        ep = dressing_operator(space, 1, vec, kval, mod.m)
        inner = ProductField(mod.x(beta, rvec), ep)
        return ProductField(em, inner, label="Z%r%r" % (beta, rvec))

    return DkModule(space, mod.k, mod.twist, mod.rs, mod.lat, mod.alg,
                    z_fn, mod.kf, omega, name="Omega(%s)" % mod.name)


def from_Zmodule(w: DkModule, cartan_dirs=None) -> CkModule:
    """Rebuild a current module on M(k) (x) W: the dressings act on the
    Cartan modes, the Z and central fields on the W tensor factor."""
    if not w.k:
        raise ValueError("from_Zmodule needs a nonzero level k")
    space = w.space
    kval = w.k.as_fraction()
    if cartan_dirs is None:
        cartan_dirs = [d for d in space.heis_dirs if d < w.rs.rank]
    cartan_dirs = list(cartan_dirs)

    def x_fn(beta, rvec):
        vec = w.root_vec(beta)
        neg = tuple(-c for c in vec)
        em = dressing_operator(space, -1, neg, kval, w.m)
        ep = dressing_operator(space, 1, neg, kval, w.m)
        tz = RestrictedField(w.z(beta, rvec), cartan_dirs)
        return ProductField(em, ProductField(ep, tz),
                            label="x'%r%r" % (beta, rvec))

    def k_fn(i, rvec):
        return RestrictedField(w.kf(i, rvec), cartan_dirs)

    def beta_fn(vec, rvec):
        h = HeisenbergField(space, vec, label="h%r" % (vec,))
        return ProductField(h, k_fn(0, rvec), scale=1 / kval,
                            label="b'%r%r" % (vec, rvec))

    return CkModule(space, w.k, w.twist, w.rs, w.lat, w.alg,
                    x_fn, beta_fn, k_fn, name="M(k)x%s" % w.name)


# ---------------------------------------------------------------------------
# relation builders
# ---------------------------------------------------------------------------


def _sum_r_k(mod, rvec, tot):
    parts = [ScaledField(mod.kf(i + 1, tot), ri)
             for i, ri in enumerate(rvec) if ri]
    return SumField(parts) if parts else None


def current_pair_relation(mod: CkModule, b1, b2, rvec, svec) -> DeltaRelation:
    """[x_{b1}(r, z1), x_{b2}(s, z2)] as a delta-function identity."""
    tw = mod.twist
    m = tw.m
    tot = tuple(a + b for a, b in zip(rvec, svec))
    rhs = []
    for p in range(m):
        tb1 = tw.theta_root(p, b1)
        a = tw.root_of_unity(-p)
        et = tw.eta(p, b1)
        summed = tuple(x + y for x, y in zip(tb1, b2))
        if summed in mod.rs.root_set:
            coeff = et * mod.alg.eps_roots(tb1, b2) * Fraction(1, m)
            rhs.append(DeltaTerm(coeff, a, mod.x(summed, tot)))
        elif not any(summed):
            fxx = mod.form_xx(b2)
            base = et * fxx * Fraction(1, m)
            rhs.append(DeltaTerm(-base, a, mod.beta_field(mod.root_vec(b2), tot)))
            rk = _sum_r_k(mod, rvec, tot)
            if rk is not None:
                rhs.append(DeltaTerm(base, a, rk))
            rhs.append(DeltaTerm(base * Fraction(1, m), a, mod.kf(0, tot),
                                 use_D=True))
    return DeltaRelation(mod.x(b1, rvec), mod.x(b2, svec), [], rhs)


def cartan_pair_relation(mod: CkModule, h1, h2, rvec, svec) -> DeltaRelation:
    """[h1(r, z1), h2(s, z2)]: pure central right-hand side."""
    tw = mod.twist
    m = tw.m
    tot = tuple(a + b for a, b in zip(rvec, svec))
    rhs = []
    for p in range(m):
        ip = _twisted_cartan_pairing(mod, p, h1, h2)
        if not ip:
            continue
        a = tw.root_of_unity(-p)
        base = ip * Fraction(1, m)
        rk = _sum_r_k(mod, rvec, tot)
        if rk is not None:
            rhs.append(DeltaTerm(base, a, rk))
        rhs.append(DeltaTerm(base * Fraction(1, m), a, mod.kf(0, tot),
                             use_D=True))
    return DeltaRelation(mod.beta_field(h1, rvec), mod.beta_field(h2, svec),
                         [], rhs)


def mixed_pair_relation(mod: CkModule, h1, b2, rvec, svec) -> DeltaRelation:
    """[h1(r, z1), x_{b2}(s, z2)] = pairing * x_{b2}(r+s, z2) delta."""
    tw = mod.twist
    m = tw.m
    tot = tuple(a + b for a, b in zip(rvec, svec))
    b2vec = mod.root_vec(b2)
    rhs = []
    for p in range(m):
        ip = _twisted_cartan_pairing(mod, p, h1, b2vec)
        if ip:
            rhs.append(DeltaTerm(ip * Fraction(1, m), tw.root_of_unity(-p),
                                 mod.x(b2, tot)))
    return DeltaRelation(mod.beta_field(h1, rvec), mod.x(b2, svec), [], rhs)


def _twisted_cartan_pairing(mod, p, v1, v2):
    """<theta^p v1, v2> on label-coordinate vectors; identity twist reads
    the Gram form directly."""
    if p % mod.twist.m == 0:
        return Cyc.rational(mod.space.pair(tuple(v1), tuple(v2)))
    raise NotImplementedError("nontrivial twists supply their own pairing")


def z_pair_relation(w: DkModule, b1, b2, rvec, svec) -> DeltaRelation:
    """The quadratic Z-relation with its binomial prefactors."""
    tw = w.twist
    m = tw.m
    kinv = w.k.inv()
    tot = tuple(a + b for a, b in zip(rvec, svec))
    factors = []
    rhs = []
    for p in range(m):
        tb1 = tw.theta_root(p, b1)
        a = tw.root_of_unity(-p)
        ip = w.rs.form(tb1, b2)
        if ip:
            factors.append((Fraction(ip), a))
        et = tw.eta(p, b1)
        summed = tuple(x + y for x, y in zip(tb1, b2))
        if summed in w.rs.root_set:
            coeff = et * w.alg.eps_roots(tb1, b2) * Fraction(1, m)
            rhs.append(DeltaTerm(coeff, a, w.z(summed, tot)))
        elif not any(summed):
            fxx = w.form_xx(b2)
            base = et * fxx * Fraction(1, m)
            rhs.append(DeltaTerm(-base * kinv, a,
                                 ZeroModeTimesField(w.space, w.root_vec(b2),
                                                    w.kf(0, tot))))
            rk = _sum_r_k(w, rvec, tot)
            if rk is not None:
                rhs.append(DeltaTerm(base, a, rk))
            rhs.append(DeltaTerm(base * kinv * Fraction(1, m), a,
                                 w.kf(0, tot), use_D=True))
    f = w.z(b1, rvec)
    g = w.z(b2, svec)
    return DeltaRelation(f, g, factors, rhs)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def check_Ck(mod: CkModule, window: TruncationWindow, roots=None,
             rvecs=None, states=None, entries=None):
    """The category conditions plus the generating relations, swept
    coefficient-by-coefficient over the window."""
    if not mod.k:
        raise ValueError("check_Ck needs a nonzero level k")
    if entries is None:
        entries = []
    if roots is None:
        roots = list(mod.rs.roots)
    if rvecs is None:
        rvecs = checks.default_rvecs(mod.N)
    if states is None:
        states = window_states(mod.space, window)
    W = window.modes
    zero = mod.zero_r()
    kinv = mod.k.inv()
    sample = roots[0]
    hvecs = [mod.root_vec(a) for a in mod.rs.simple_roots]

    # (1) k_0 at multidegree 0 acts as the scalar k
    checks.run(entries, "ck.k0_scalar", {}, checks.vanishes,
               [(1, mod.kf(0, zero)), (-mod.k, IdentityField())], states, -W)

    # (2) d_0-grading: bounded above, and every field moves it by its mode
    graded = [mod.x(sample, zero), mod.beta_field(hvecs[0], zero),
              mod.kf(0, rvecs[-1] if len(rvecs) > 1 else zero)]
    for f in graded:
        checks.run(entries, "ck.grading", {"field": f.label},
                   checks.degree_shift, mod.space, f, states, -W)

    # (3) factorization through k_0
    x = partial(mod.x, sample)
    k0 = partial(mod.kf, 0)
    k1 = partial(mod.kf, 1)
    checks.factorization(entries, "ck.factor_x", {"beta": list(sample)},
                         x, k0, x, rvecs, states, -W, kinv)
    checks.factorization(entries, "ck.factor_k", {"i": 1},
                         k1, k0, k1, rvecs, states, -W, kinv)

    # quadratic relations at multidegree zero (factorization reduces the
    # general case to this one)
    for b1 in roots:
        for b2 in roots:
            checks.run(entries, "ck.rel1", {"b1": list(b1), "b2": list(b2)},
                       checks.holds,
                       current_pair_relation(mod, b1, b2, zero, zero),
                       states, W)
    for h1 in hvecs:
        for h2 in hvecs:
            checks.run(entries, "ck.rel2", {"h1": list(h1), "h2": list(h2)},
                       checks.holds,
                       cartan_pair_relation(mod, h1, h2, zero, zero),
                       states, W)
        checks.run(entries, "ck.rel3", {"h1": list(h1), "b2": list(sample)},
                   checks.holds,
                   mixed_pair_relation(mod, h1, sample, zero, zero), states, W)

    # (4) central combination; (5)/(6) derivation eigenvalues; (8) centrality
    for rvec in rvecs:
        checks.run(entries, "ck.rel4_central", {"r": list(rvec)},
                   checks.central, mod.kf, mod.m, rvec, states, -W)
        checks.derivations(entries, "ck.rel6_d0", "ck.rel5_di", mod, rvec,
                           states, -W)
        central = DeltaRelation(mod.kf(1, rvec), mod.x(sample, zero), [], [])
        checks.run(entries, "ck.rel8_central", {"j": 1, "r": list(rvec)},
                   checks.holds, central, states, W)

    # (7) eta-covariance of the root fields
    checks.eta_covariance(entries, "ck.rel7_eta", lambda b: mod.x(b, zero),
                          mod.twist, roots, states, -W)
    return entries


def _omega_closed(fields, states, lo, cartan):
    """No mode of the fields creates a Cartan mode."""
    for v in states:
        for f in fields:
            for n in range(lo, f.max_mode(v) + 1):
                for s in f.mode_memo(n, v):
                    if any(d in cartan for d, _ in s[1]):
                        return False, {"state": v, "mode": n, "out": s}
    return True, None


def _zero_mode_bracket(space, avec, z, ip, states, lo):
    """[a(0), Z(n)] = ip Z(n) for the Cartan vector avec."""
    for v in states:
        comb = {v: Cyc.one()}
        for n in range(lo, z.max_mode(v) + 1):
            lhs = comb_sub(space.heisenberg_act(avec, 0, z.mode_memo(n, v)),
                           z.mode(n, space.heisenberg_act(avec, 0, comb)))
            if comb_sub(lhs, comb_scale(z.mode_memo(n, v), ip)):
                return False, {"state": v, "mode": n}
    return True, None


def verify_Zk_relations(w: DkModule, window: TruncationWindow, roots=None,
                        rvecs=None, entries=None):
    """The ten quadratic-algebra relations on the module's Omega states."""
    if entries is None:
        entries = []
    if roots is None:
        roots = list(w.rs.roots)
    if rvecs is None:
        rvecs = checks.default_rvecs(w.N)
    states = w.omega_states
    W = window.modes
    zero = w.zero_r()
    kinv = w.k.inv()
    sample = roots[0]

    # closure: Z and k modes keep Omega inside Omega (no Cartan modes)
    closed = [w.z(sample, zero), w.kf(0, rvecs[-1] if len(rvecs) > 1 else zero)]
    checks.run(entries, "zk.omega_closed", {}, _omega_closed, closed, states,
               -W, set(range(w.rs.rank)))

    # (1) and (2): factorization through k_0
    z = partial(w.z, sample)
    k0 = partial(w.kf, 0)
    k1 = partial(w.kf, 1)
    checks.factorization(entries, "zk.1", {"beta": list(sample)},
                         z, k0, z, rvecs, states, -W, kinv)
    checks.factorization(entries, "zk.2", {"i": 1},
                         k0, k1, k1, rvecs, states, -W, kinv)

    # (3) central combination, (4)/(5) grading, (6) d_i eigenvalues
    for rvec in rvecs:
        checks.run(entries, "zk.3", {"r": list(rvec)},
                   checks.central, w.kf, w.m, rvec, states, -W)
        checks.run(entries, "zk.4", {"beta": list(sample), "r": list(rvec)},
                   checks.degree_shift, w.space, w.z(sample, rvec), states, -W)
        checks.derivations(entries, "zk.5", "zk.6", w, rvec, states, -W)

    # (7) the quadratic relation with binomial prefactors
    for b1 in roots:
        for b2 in roots:
            checks.run(entries, "zk.7", {"b1": list(b1), "b2": list(b2)},
                       checks.holds, z_pair_relation(w, b1, b2, zero, zero),
                       states, W)

    # (8) zero-mode bracket with the Cartan
    for a in w.rs.simple_roots:
        checks.run(entries, "zk.8", {"a": list(a), "beta": list(sample)},
                   _zero_mode_bracket, w.space, w.root_vec(a),
                   w.z(sample, zero), Cyc.rational(w.rs.form(a, sample)),
                   states, -W)

    # (9) eta-covariance
    checks.eta_covariance(entries, "zk.9", lambda b: w.z(b, zero), w.twist,
                          roots, states, -W)

    # (10) centrality of the k fields
    for rvec in rvecs[:2]:
        central = DeltaRelation(w.kf(1, rvec), w.z(sample, zero), [], [])
        checks.run(entries, "zk.10", {"j": 1, "r": list(rvec)},
                   checks.holds, central, states, W)
    return entries


def _verma_bracket(space, k, h, g, states, nmax):
    """[h(i), g(-i)] = i k <h, g> Id on every state, i = 1..nmax."""
    ip = space.pair(tuple(h), tuple(g))
    for v in states:
        comb = {v: Cyc.one()}
        for i in range(1, nmax + 1):
            ab = space.heisenberg_act(h, i, space.heisenberg_act(g, -i, comb))
            ba = space.heisenberg_act(g, -i, space.heisenberg_act(h, i, comb))
            if comb_sub(comb_sub(ab, ba), comb_scale(comb, i * k * ip)):
                return False, {"state": v, "i": i}
    return True, None


def verma_bracket_check(verma: HeisenbergVerma, vecs, states, nmax,
                        entries=None):
    """[h(i), g(-i)] = i k <h, g> Id on every given state, exactly."""
    if entries is None:
        entries = []
    for h in vecs:
        for g in vecs:
            checks.run(entries, "verma.bracket", {"h": list(h), "g": list(g)},
                       _verma_bracket, verma.space, verma.k, h, g, states, nmax)
    return entries


def pairing_injective(mod: CkModule, window: TruncationWindow,
                      degree_cap=2) -> bool:
    """Window evidence for the factorization V = M(k) (x) Omega: the map
    (Cartan mode multiset, omega state) -> V is injective on a slice."""
    space = mod.space
    dirs = _cartan_dirs(mod)
    omega, _ = omega_basis(mod, TruncationWindow(window.modes, degree_cap,
                                                 window.support))
    small = [s for s in omega if sum(n for _, n in s[1]) <= degree_cap]
    columns = []
    index = {}
    for s in small:
        for t in range(degree_cap + 1):
            for mk in _mode_multisets(tuple(dirs), t):
                # apply the creation modes of mk to the omega state
                comb = {s: Cyc.one()}
                for d, part in mk:
                    comb = space.heisenberg_act(space.dir_vec(d), -part, comb)
                vec = {}
                for st, c in comb.items():
                    if st not in index:
                        index[st] = len(index)
                    vec[index[st]] = c
                columns.append(vec)
    mat = [[Cyc.zero()] * len(columns) for _ in range(len(index))]
    for j, vec in enumerate(columns):
        for i, c in vec.items():
            mat[i][j] = c
    return rank(mat) == len(columns)


def roundtrip_check(mod: CkModule, window: TruncationWindow, roots=None,
                    rvecs=None, entries=None):
    """Matrix elements of the rebuilt module match the original ones."""
    if entries is None:
        entries = []
    if roots is None:
        roots = list(mod.rs.roots)
    if rvecs is None:
        rvecs = checks.default_rvecs(mod.N)
    states = window_states(mod.space, window)
    W = window.modes
    w = to_Zmodule(mod, window)
    back = from_Zmodule(w)
    count = len(w.omega_states)
    checks.run(entries, "bridge.omega_size", {"count": count}, bool, count)
    for beta in roots:
        for rvec in rvecs:
            checks.run(entries, "bridge.roundtrip_x",
                       {"beta": list(beta), "r": list(rvec)},
                       checks.fields_equal, back.x(beta, rvec),
                       mod.x(beta, rvec), states, -W)
    for a in mod.rs.simple_roots:
        avec = mod.root_vec(a)
        for rvec in rvecs[:3]:
            checks.run(entries, "bridge.roundtrip_beta",
                       {"a": list(a), "r": list(rvec)},
                       checks.fields_equal, back.beta_field(avec, rvec),
                       mod.beta_field(avec, rvec), states, -W)
    for rvec in rvecs[:3]:
        checks.run(entries, "bridge.roundtrip_k0", {"r": list(rvec)},
                   checks.fields_equal, back.kf(0, rvec), mod.kf(0, rvec),
                   states, -W)
    checks.run(entries, "bridge.pairing_injective", {},
               pairing_injective, mod, window)
    return entries, w, back
