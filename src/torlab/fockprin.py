"""Principal-picture Fock module and its Z-operator verification.

The state space is V(Gamma) = S(H_+) (x) C[Gamma] over the null
lattice Gamma = span(delta_1..delta_N, d_1..d_N) with (delta_i, d_j)
the only nonzero pairings.  The Heisenberg directions are the delta_i,
whose modes sit at zeta-exponents divisible by m (the order of the
principal automorphism theta), and

    X(delta_r, z^m)  = E^-(delta_r, z^m) e^{delta_r} z^{-m delta_r(0)} E^+
    k_0(r, z^m)      = X(delta_r, z^m)
    k_i(r, z^m)      = delta_i(z^m) X(delta_r, z^m)
    Z(beta, r, z)    = C_j k_0(r, z^m)   (beta in the theta-orbit of beta_j)

at level k = 1.  The vacuum-space constants C_j are configuration
inputs; solve_prin_constants recovers them from the quadratic relation
when a single orbit carries the whole root system.  Root vectors are
renormalized so [x_beta, x_{-beta}] = -2/<beta, beta> and every eta
scalar is 1, and the theta-fixed zero-weight Cartan acts by 0, which
removes the (beta_2)_0 delta-term from the quadratic relation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import isqrt

from . import checks
from .distops import (DeltaRelation, ExpField, FieldFamily, FockSpace,
                      HeisenbergField, ProductField, ScaledField,
                      TruncationWindow, product_of_binomials)
from .fockhom import window_states
from .scalar import Cyc, cyc_root_of_unity
from .zbridge import DkModule, TwistData, z_pair_relation


class PrinTwist(TwistData):
    """Principal automorphism data: order m and the root action theta."""

    def __init__(self, m: int, theta_fn):
        super().__init__(m)
        self._theta = theta_fn

    def theta_root(self, p, beta):
        beta = tuple(beta)
        for _ in range(p % self.m):
            beta = tuple(self._theta(beta))
        return beta


def negation_theta(beta):
    """Root action of the principal automorphism in rank 1 (m = 2)."""
    return tuple(-c for c in beta)


class PrinXField(FieldFamily):
    """X(delta_r, z^m): shifts the label by delta_r, multiplies the
    z-exponent -m(delta_r, label), and dresses with E^-(delta_r, z^m).
    E^+ is the identity because the delta-directions pair to zero with
    every mode the space carries."""

    def __init__(self, space: FockSpace, vec, label="k0"):
        super().__init__()
        self.space = space
        self.vec = tuple(vec)
        self.shift = self.vec
        self.label = label
        self.em = ExpField(space, vec, 1, -1)
        self._base = {}

    def base(self, label):
        hit = self._base.get(label)
        if hit is None:
            hit = -self.space.weight * int(self.space.pair(self.vec, label))
            self._base[label] = hit
        return hit

    def max_mode(self, state):
        return self.base(state[0])

    def mode_state(self, n, state):
        e = self.base(state[0])
        if n > e:
            return {}
        shifted = self.space.shift_label(state, self.vec)
        return self.em.mode_memo(n - e, shifted)


class PrincipalModule:
    """V(Gamma) with the principal k-fields and scalar Z-operators."""

    def __init__(self, rs, N: int, m: int, theta_fn, constants=None):
        self.rs = rs
        self.N = N
        self.m = m
        self.twist = PrinTwist(m, theta_fn)
        dim = 2 * N
        gram = [[0] * dim for _ in range(dim)]
        for i in range(N):
            gram[i][N + i] = 1
            gram[N + i][i] = 1
        self.space = FockSpace(gram, range(N), mode_scale=1, weight=m)
        self.orbits = self._theta_orbits()
        self.constants = None
        if constants is not None:
            self.set_constants(constants)
        self._fields = {}

    def _theta_orbits(self):
        seen = set()
        orbits = []
        for beta in self.rs.roots:
            beta = tuple(beta)
            if beta in seen:
                continue
            orbit = []
            cur = beta
            for _ in range(self.m):
                if cur in seen:
                    break
                seen.add(cur)
                orbit.append(cur)
                cur = self.twist.theta_root(1, cur)
            orbits.append(tuple(orbit))
        return orbits

    def orbit_rep(self, beta):
        beta = tuple(beta)
        for orbit in self.orbits:
            if beta in orbit:
                return orbit[0]
        raise ValueError("root %r is not in any configured orbit" % (beta,))

    def set_constants(self, constants):
        """Accept a single scalar (one orbit) or a rep -> scalar map."""
        if isinstance(constants, (Cyc, int, Fraction)):
            if len(self.orbits) != 1:
                raise ValueError("a single constant needs a single orbit")
            constants = {self.orbits[0][0]: constants}
        out = {}
        for rep, c in constants.items():
            rep = self.orbit_rep(rep)
            out[rep] = c if isinstance(c, Cyc) else Cyc.rational(c)
        if set(out) != {o[0] for o in self.orbits}:
            raise ValueError("constants must cover every theta-orbit")
        self.constants = out

    def constant(self, beta) -> Cyc:
        if self.constants is None:
            raise ValueError("orbit constants are not configured")
        return self.constants[self.orbit_rep(beta)]

    def delta(self, rvec):
        return tuple(rvec) + (0,) * self.N

    def zero_r(self):
        return (0,) * self.N

    def vacuum(self, label=None):
        return self.space.vacuum(label)

    # cached field constructors -------------------------------------------

    def k0(self, rvec) -> PrinXField:
        key = ("k0", tuple(rvec))
        if key not in self._fields:
            self._fields[key] = PrinXField(self.space, self.delta(rvec),
                                           label="k0%r" % (tuple(rvec),))
        return self._fields[key]

    def k(self, i, rvec) -> FieldFamily:
        """k_i(r, z^m) = delta_i(z^m) X(delta_r, z^m), 1-based i."""
        key = ("k", i, tuple(rvec))
        if key not in self._fields:
            h = HeisenbergField(self.space, self.space.dir_vec(i - 1),
                                label="d%d" % i)
            self._fields[key] = ProductField(h, self.k0(rvec),
                                             label="k%d%r" % (i, tuple(rvec)))
        return self._fields[key]

    def kf(self, i, rvec) -> FieldFamily:
        return self.k0(rvec) if i == 0 else self.k(i, rvec)

    def delta_coord(self, i) -> int:
        """Label coordinate read by d_i (1-based i)."""
        return i - 1

    def z(self, beta, rvec) -> FieldFamily:
        key = ("z", tuple(beta), tuple(rvec))
        if key not in self._fields:
            f = ScaledField(self.k0(rvec), self.constant(beta))
            f.label = "Z%r%r" % (tuple(beta), tuple(rvec))
            self._fields[key] = f
        return self._fields[key]


# ---------------------------------------------------------------------------
# the Z-module view (feeds the shared quadratic-relation builder)
# ---------------------------------------------------------------------------


class _PrinLat:
    """The roots have no component in the null lattice: the zero-weight
    Cartan acts by 0, so root embeddings are the zero vector."""

    def __init__(self, N, dim):
        self.N = N
        self.dim = dim

    def embed_root(self, beta):
        return (0,) * self.dim


class _PrinAlg:
    @staticmethod
    def eps_roots(b1, b2):
        raise NotImplementedError(
            "structure constants for twisted root sums are not configured")


class PrinZModule(DkModule):
    """DkModule wrapper with the renormalized pairing <x_b, x_-b>."""

    def form_xx(self, beta) -> Cyc:
        return Cyc.rational(Fraction(-2, self.rs.form(beta, beta)))


def as_zmodule(mod: PrincipalModule, states) -> PrinZModule:
    return PrinZModule(mod.space, 1, mod.twist, mod.rs,
                       _PrinLat(mod.N, 2 * mod.N), _PrinAlg(),
                       mod.z, mod.kf, states, name="prin")


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def verify_52(mod: PrincipalModule, window: TruncationWindow, rvecs=None,
              states=None, entries=None):
    """D k_0(r, z^m) = -m sum_i r_i k_i(r, z^m), coefficient-wise."""
    if entries is None:
        entries = []
    if rvecs is None:
        rvecs = checks.default_rvecs(mod.N)
    if states is None:
        states = window_states(mod.space, window)
    for rvec in rvecs:
        checks.run(entries, "prin.52", {"r": list(rvec)}, checks.central,
                   mod.kf, mod.m, rvec, states, -window.modes)
    return entries


def verify_principal_relations(mod: PrincipalModule,
                               window: TruncationWindow, roots=None,
                               rvecs=None, entries=None):
    """The ten defining relations on window states, exactly."""
    if entries is None:
        entries = []
    if roots is None:
        roots = [tuple(b) for b in mod.rs.roots]
    if rvecs is None:
        rvecs = checks.default_rvecs(mod.N)
    states = window_states(mod.space, window)
    W = window.modes
    zero = mod.zero_r()
    w = as_zmodule(mod, states)
    sample = roots[0]

    # (1) Z(a, r, z) k_0(s, z^m) = Z(a, r+s, z)   (level k = 1)
    # (2) k_0(r, z^m) k_i(s, z^m) = k_i(r+s, z^m)
    z = partial(mod.z, sample)
    checks.factorization(entries, "prin.1", {"beta": list(sample)},
                         z, mod.k0, z, rvecs, states, -W)
    for i in range(mod.N + 1):
        ki = partial(mod.kf, i)
        checks.factorization(entries, "prin.2", {"i": i},
                             mod.k0, ki, ki, rvecs, states, -W)

    # (3) sum_i r_i k_i + (1/m) D k_0 = 0, which is exactly (5.2)
    for rvec in rvecs:
        checks.run(entries, "prin.3", {"r": list(rvec)}, checks.central,
                   mod.kf, mod.m, rvec, states, -W)

    # (4) [d_0, Z] = DZ, (5) [d_0, k_j] = D k_j, (6) [d_i, k_j(r)] = r_i k_j(r)
    for rvec in rvecs:
        checks.run(entries, "prin.4", {"beta": list(sample), "r": list(rvec)},
                   checks.degree_shift, mod.space, mod.z(sample, rvec),
                   states, -W)
        checks.derivations(entries, "prin.5", "prin.6", mod, rvec, states, -W)

    # (7) the quadratic relation with binomial prefactors
    pair_rvecs = [(zero, zero)]
    if len(rvecs) > 1:
        pair_rvecs += [(rvecs[1], zero), (rvecs[1], rvecs[1])]
    for b1 in roots:
        for b2 in roots:
            for rvec, svec in pair_rvecs:
                checks.run(entries, "prin.7",
                           {"b1": list(b1), "b2": list(b2),
                            "r": list(rvec), "s": list(svec)},
                           checks.holds, z_pair_relation(w, b1, b2, rvec, svec),
                           states, W)

    # (8) is vacuous here: the zero-weight Cartan t_0 is trivial for the
    # configured principal types, so there is no alpha to bracket with
    checks.run(entries, "prin.8", {"dim_h0": 0}, lambda: True)

    # (9) eta-covariance: Z(b, r, w^p z) = eta Z(theta^p b, r, z), eta = 1
    checks.eta_covariance(entries, "prin.9", lambda b: mod.z(b, zero),
                          mod.twist, roots, states, -W)

    # (10) centrality of the k fields
    for rvec in rvecs[:3]:
        for j in range(mod.N + 1):
            central = DeltaRelation(mod.kf(j, rvec), mod.z(sample, zero),
                                    [], [])
            checks.run(entries, "prin.10", {"j": j, "r": list(rvec)},
                       checks.holds, central, states, W)

    # the center acts nontrivially at desk scale
    rv = rvecs[1] if len(rvecs) > 1 else zero
    for j in range(mod.N + 1):
        checks.run(entries, "prin.k_nontrivial", {"j": j},
                   checks.nonzero, mod.kf(j, rv), states, -W)
    return entries


# ---------------------------------------------------------------------------
# constant solver
# ---------------------------------------------------------------------------


def _sqrt_in_cyc(u: Cyc):
    """Both square roots of u in a cyclotomic field, for rational u."""
    if not u.is_rational():
        raise ValueError("no solution in Q(zeta_M)")
    q = u.as_fraction()
    if not q:
        return [Cyc.zero()]
    num, den = abs(q.numerator), q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError("no solution in Q(zeta_M)")
    root = Cyc.rational(Fraction(rn, rd))
    if q < 0:
        root = root * cyc_root_of_unity(4, 1)
    return [root, -root]


def solve_prin_constants(mod: PrincipalModule, window: TruncationWindow):
    """Solve the quadratic relation for the orbit constant C.

    The relation is linear in u = C^2: on the vacuum space both sides
    are scalar series supported on the anti-diagonal, and matching the
    coefficients pins u.  Returns every C in Q(zeta_M) with C^2 = u;
    each returned value must (and does) pass the verification suite.
    """
    if len(mod.orbits) != 1:
        raise NotImplementedError(
            "the constant solver needs a single theta-orbit")
    beta = mod.orbits[0][0]
    m = mod.m
    W = max(window.modes, 2)
    factors = []
    central_p = []
    for p in range(m):
        tb = mod.twist.theta_root(p, beta)
        ip = mod.rs.form(tb, beta)
        if ip:
            factors.append((Fraction(ip), cyc_root_of_unity(m, -p)))
        summed = tuple(x + y for x, y in zip(tb, beta))
        if summed in mod.rs.root_set:
            raise NotImplementedError(
                "orbit pairs landing in the root system are out of scope")
        if not any(summed):
            central_p.append(p)
    coef = product_of_binomials(factors, W)
    rconst = Cyc.rational(Fraction(-2, mod.rs.form(beta, beta))
                          * Fraction(1, m * m))

    def rhs(a):
        tot = Cyc.zero()
        for p in central_p:
            tot = tot + cyc_root_of_unity(m, -p * a) * a
        return rconst * tot

    u = None
    for a in range(1, W + 1):
        la = coef[a]
        ra = rhs(a)
        if la:
            cand = ra * (la if isinstance(la, Cyc) else Cyc.rational(la)).inv()
            if u is None:
                u = cand
            elif u != cand:
                raise ValueError("the window constraints are inconsistent")
        elif ra:
            raise ValueError("the window constraints are inconsistent")
    if u is None:
        raise ValueError("the window does not constrain the constant")
    return _sqrt_in_cyc(u)
