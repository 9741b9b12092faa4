"""Bridge between graded current modules and their dressed Z-algebras.

A CkModule carries root fields x_beta(r, z), Cartan fields beta(r, z)
and central fields k_i(r, z^m) at a fixed nonzero level k, with the
factorization property through k_0.  Stripping the Heisenberg
exponentials E^-(beta, z) x_beta(r, z) E^+(beta, z) yields Z-operators
acting on the vacuum space Omega (the joint kernel of the positive
Cartan modes); conversely a Z-module W rebuilds a current module on
M(k) (x) W by tensoring the dressing exponentials back on.  Both
directions, the category conditions and the quadratic Z-relations are
verified coefficient-by-coefficient on truncation windows.  The
Z-relation with its binomial prefactors is fockhom.pair_relation, read
from the DkModule; the current relations are built here from the same
summands, Cartan pairings and central terms (fockhom.root_pair_terms,
cartan_pair_terms, central_terms).  Both modules carry their theta as an
autom.TwistData, the identity one for the homogeneous module.
Every dressed field is a ProductField of E^-, a view and E^+ (nested
five deep in the rebuilt module), and each moves the label by a fixed
vector, so each has a label view (distops.FieldFamily) and keeps one
zero-label core image per mode multiset; a RestrictedField takes its
base's view.  Only b' = h k_0 / k and products holding a k_i read the
label otherwise and keep their images per state.  A relation on two
such composites (ck.rel1, zk.7) is swept on their zero-label cores,
multiplied as they are read (distops.DeltaRelation.check_window).
verify_Zk_relations writes relations (1)-(6), (9) and (10) of D_k
through checks.dk_relations, the block of the principal suite too,
with k_1 alone, and adds zk.omega_closed, zk.7 and zk.8.
"""

from __future__ import annotations

from functools import partial

from . import checks
from .autom import TwistData
from .distops import (LABEL_BITS, MODE_MASK, DeltaRelation, DeltaTerm,
                      FieldFamily, FockSpace, HeisenbergField, IdentityField,
                      ProductField, TruncationWindow, _acc, dressing_operator)
from .fockhom import (HomogeneousModule, LatticeRoots, _mode_multisets,
                      cartan_pair_terms, central_terms, pair_relation,
                      root_pair_terms, window_states)
from .linalg import nullspace, rank
from .scalar import Cyc


# ---------------------------------------------------------------------------
# module containers
# ---------------------------------------------------------------------------


class _FieldModule(LatticeRoots):
    """What CkModule and DkModule share: a level-k module on a Fock space
    with its twist and root data, whose fields are built on demand by
    the constructor hooks and cached per key."""

    def __init__(self, space: FockSpace, k, twist: TwistData, rs, lat, alg,
                 k_fn, name):
        self.space = space
        self.k = k if isinstance(k, Cyc) else Cyc.rational(k)
        self.twist = twist
        self.m = twist.m
        self.rs = rs
        self.lat = lat
        self.alg = alg
        self.N = lat.N
        self._k_fn = k_fn
        self.name = name
        self._cache = {}

    def _field(self, build, *key):
        """build(*key[1:]), cached under key."""
        if key not in self._cache:
            self._cache[key] = build(*key[1:])
        return self._cache[key]

    def zero_r(self):
        return (0,) * self.N

    def kf(self, i, rvec) -> FieldFamily:
        return self._field(self._k_fn, "k", i, tuple(rvec))

    def delta_coord(self, i) -> int:
        """Label coordinate read by d_i (1-based i)."""
        return self.rs.rank + (i - 1)


class CkModule(_FieldModule):
    """A level-k current module presented through its field families.

    x_fn(beta, rvec), beta_fn(vec, rvec) and k_fn(i, rvec) build the
    root, Cartan and central fields; vec is a label-coordinate vector,
    beta a root tuple.  root_vec(beta) embeds a root into coordinates.
    """

    def __init__(self, space: FockSpace, k, twist: TwistData, rs, lat, alg,
                 x_fn, beta_fn, k_fn, name="Ck"):
        super().__init__(space, k, twist, rs, lat, alg, k_fn, name)
        self._x_fn = x_fn
        self._beta_fn = beta_fn

    def x(self, beta, rvec) -> FieldFamily:
        return self._field(self._x_fn, "x", tuple(beta), tuple(rvec))

    def beta_field(self, vec, rvec) -> FieldFamily:
        return self._field(self._beta_fn, "b", tuple(vec), tuple(rvec))


class DkModule(_FieldModule):
    """A Z-algebra module: Z-fields and central fields on a state space,
    together with the window basis of the space they act on."""

    def __init__(self, space: FockSpace, k, twist: TwistData, rs, lat, alg,
                 z_fn, k_fn, omega_states, name="Dk"):
        super().__init__(space, k, twist, rs, lat, alg, k_fn, name)
        self._z_fn = z_fn
        self.omega_states = list(omega_states)

    def z(self, beta, rvec) -> FieldFamily:
        return self._field(self._z_fn, "z", tuple(beta), tuple(rvec))


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

    return CkModule(space, mod.k, mod.twist, mod.rs, mod.lat, mod.alg,
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
    lower slices.  Returns (states, pure): the states in the supports of
    the kernel vectors, and whether every kernel vector is a single
    basis state.
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
        # rows: images under every h_d(i), i = 1..t, stacked, one row per
        # (d, i, output state) in order of first appearance
        rows = {}
        for j, s in enumerate(basis):
            comb = {space.sid(s): Cyc.one()}
            for d in dirs:
                for i in range(1, t + 1):
                    out = space.heisenberg_act(space.dir_vec(d), i, comb)
                    for w, c in out.items():
                        rows.setdefault((d, i, w), [0] * len(basis))[j] = c
        for vec in nullspace(list(rows.values())):
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
    on the label and the non-Cartan modes, the Cartan modes ride along.
    It has F's view when F has one, and then one core row per mid.  The
    split of a mode multiset is kept per mid: F reads its core key with
    the Cartan modes taken off, and they go back on each output through
    the space's join transition."""

    def __init__(self, base, cartan_dirs, label=None):
        super().__init__()
        self.base = base
        self.cartan = frozenset(cartan_dirs)
        self.shift = base.shift
        self.space = base.space
        self.label = label or ("1x" + base.label)
        self._splits = {}
        self.view = base.view

    def _split(self, key):
        """(mid of the Cartan modes, key of the W state of the rest),
        the first kept per mid."""
        mid = key & MODE_MASK
        hit = self._splits.get(mid)
        if hit is None:
            space = self.space
            modes = space.modes_of(mid)
            hit = self._splits[mid] = (
                space.mid(tuple(mo for mo in modes if mo[0] in self.cartan)),
                space.mid(tuple(mo for mo in modes if mo[0] not in self.cartan)))
        return hit[0], (key & LABEL_BITS) | hit[1]

    def cap(self, key):
        return self.base.cap(self._split(key)[1])

    def mode_state(self, n, key):
        mk, wkey = self._split(key)
        joined = self.space.joined
        out = {}
        for k, c in self.base.core(n, wkey).items():
            _acc(out, (k & LABEL_BITS) | joined(k & MODE_MASK, mk), c)
        return out


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


def from_Zmodule(w: DkModule) -> CkModule:
    """Rebuild a current module on M(k) (x) W: the dressings act on the
    Cartan modes, the Z and central fields on the W tensor factor."""
    if not w.k:
        raise ValueError("from_Zmodule needs a nonzero level k")
    space = w.space
    kval = w.k.as_fraction()
    cartan_dirs = _cartan_dirs(w)

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


def current_pair_relation(mod: CkModule, b1, b2, rvec, svec) -> DeltaRelation:
    """[x_{b1}(r, z1), x_{b2}(s, z2)] as a delta-function identity: the
    summands of root_pair_terms, with an x term at each root summand and
    the terms -(b2)(r+s), sum_i r_i k_i and D k_0 at each zero summand."""
    tot = tuple(a + b for a, b in zip(rvec, svec))
    rhs = []
    for a, lead, summed in root_pair_terms(mod, b1, b2)[1]:
        if summed is not None:
            rhs.append(DeltaTerm(lead, a, mod.x(summed, tot)))
            continue
        rhs.append(DeltaTerm(-lead, a, mod.beta_field(mod.root_vec(b2), tot)))
        rhs += central_terms(mod, lead, a, rvec, tot, 1)
    return DeltaRelation(mod.x(b1, rvec), mod.x(b2, svec), [], rhs)


def cartan_pair_relation(mod: CkModule, a1, a2, rvec, svec) -> DeltaRelation:
    """[h_a1(r, z1), h_a2(s, z2)]: pure central right-hand side."""
    tot = tuple(a + b for a, b in zip(rvec, svec))
    rhs = []
    for a, lead in cartan_pair_terms(mod, a1, a2):
        rhs += central_terms(mod, lead, a, rvec, tot, 1)
    return DeltaRelation(mod.beta_field(mod.root_vec(a1), rvec),
                         mod.beta_field(mod.root_vec(a2), svec), [], rhs)


def mixed_pair_relation(mod: CkModule, a1, b2, rvec, svec) -> DeltaRelation:
    """[h_a1(r, z1), x_{b2}(s, z2)] = pairing * x_{b2}(r+s, z2) delta."""
    tot = tuple(a + b for a, b in zip(rvec, svec))
    rhs = [DeltaTerm(lead, a, mod.x(b2, tot))
           for a, lead in cartan_pair_terms(mod, a1, b2)]
    return DeltaRelation(mod.beta_field(mod.root_vec(a1), rvec),
                         mod.x(b2, svec), [], rhs)


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
    simple = mod.rs.simple_roots

    # (1) k_0 at multidegree 0 acts as the scalar k
    checks.run(entries, "ck.k0_scalar", {}, checks.vanishes,
               [(1, mod.kf(0, zero)), (-mod.k, IdentityField())], states, -W)

    # (2) d_0-grading: bounded above, and every field moves it by its mode
    graded = [mod.x(sample, zero),
              mod.beta_field(mod.root_vec(simple[0]), zero),
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
    for a1 in simple:
        h1 = list(mod.root_vec(a1))
        for a2 in simple:
            checks.run(entries, "ck.rel2",
                       {"h1": h1, "h2": list(mod.root_vec(a2))},
                       checks.holds,
                       cartan_pair_relation(mod, a1, a2, zero, zero),
                       states, W)
        checks.run(entries, "ck.rel3", {"h1": h1, "b2": list(sample)},
                   checks.holds,
                   mixed_pair_relation(mod, a1, sample, zero, zero), states, W)

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


def verify_Zk_relations(w: DkModule, window: TruncationWindow, roots=None,
                        rvecs=None, entries=None):
    """The ten quadratic-algebra relations on the module's Omega states:
    zk.omega_closed, the D_k block checks.dk_relations (zk.1-6, 9, 10)
    with k_1 alone and the multidegrees rvecs[:2] for centrality, then
    zk.7 and zk.8."""
    if entries is None:
        entries = []
    if roots is None:
        roots = list(w.rs.roots)
    if rvecs is None:
        rvecs = checks.default_rvecs(w.N)
    states = w.omega_states
    W = window.modes
    zero = w.zero_r()
    sample = roots[0]

    # closure: Z and k modes keep Omega inside Omega (no Cartan modes)
    closed = [w.z(sample, zero), w.kf(0, rvecs[-1] if len(rvecs) > 1 else zero)]
    cartan = set(range(w.rs.rank))
    checks.run(entries, "zk.omega_closed", {}, checks.no_out, closed, states,
               -W, lambda v, n, s: any(d in cartan for d, _ in s[1]))

    checks.dk_relations(entries, "zk", w, roots, rvecs, [1], rvecs[:2],
                        states, W)

    # (7) the quadratic relation with binomial prefactors
    for b1 in roots:
        for b2 in roots:
            checks.run(entries, "zk.7", {"b1": list(b1), "b2": list(b2)},
                       checks.holds, pair_relation(w, b1, b2, zero, zero),
                       states, W)

    # (8) [a(0), Z(n)] = (a, beta) Z(n): a(0) acts by the pairing with
    # the label, so every output label must move that pairing by (a, beta)
    pair = w.space.pair
    for a in w.rs.simple_roots:
        avec = w.root_vec(a)
        ip = w.rs.form(a, sample)
        checks.run(entries, "zk.8", {"a": list(a), "beta": list(sample)},
                   checks.no_out, [w.z(sample, zero)], states, -W,
                   lambda v, n, s: pair(avec, s[0]) - pair(avec, v[0]) != ip)
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
    images = []
    index = {}
    for s in small:
        for t in range(degree_cap + 1):
            for mk in _mode_multisets(tuple(dirs), t):
                # apply the creation modes of mk to the omega state
                comb = {space.sid(s): Cyc.one()}
                for d, part in mk:
                    comb = space.heisenberg_act(space.dir_vec(d), -part, comb)
                images.append({index.setdefault(st, len(index)): c
                               for st, c in comb.items()})
    # injective: the images, one row each, have full row rank
    return rank([[image.get(i, 0) for i in range(len(index))]
                 for image in images]) == len(images)


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
