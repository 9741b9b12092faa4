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

at level k = 1.  The X and k fields are those of the homogeneous
picture (fockhom.KFields) on a space of weight m, in the same basis
b_lambda = p_lambda / z_lambda (see FockSpace), where k_0, k_i and E^-
have integer matrix elements; this module adds the orbit constants C_j,
the Z fields built on them and the constant solver.  Each Z is a
distops.ScaledField of k_0, so a DeltaRelation factors the C_j out of
its sweep: the quadratic and centrality relations are compared on the
integer images of k_0 with rational coefficients, and the C_j are put
back only on a witness.
The vacuum-space constants C_j are configuration inputs;
solve_prin_constants recovers them from the quadratic relation when a
single orbit carries the whole root system, with the prefactors and
zero summands of fockhom.root_pair_terms.  Root vectors are
renormalized so [x_beta, x_{-beta}] = -2/<beta, beta> (form_xx) and
every eta scalar is 1, and the theta-fixed zero-weight Cartan acts by 0
(root_vec is the zero vector), which removes the (beta_2)_0 delta-term
from the quadratic relation.  That relation is fockhom.pair_relation,
read from the module itself: its twist, level 1, root data and fields.
The twist is an autom.TwistData whose one-step root map is the theta_fn
the module is built with (negation_theta for A1).
The module is a D_k module (its Z-fields are C_j k_0), so
verify_principal_relations writes relations (1)-(6), (9) and (10)
through checks.dk_relations, the block zbridge.verify_Zk_relations
uses too, and adds prin.7, prin.8 and prin.k_nontrivial; verify_52
repeats the d_A relation prin.3 as prin.52.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from . import checks
from .autom import TwistData
from .distops import (FockSpace, ScaledField, TruncationWindow,
                      product_of_binomials)
from .fockhom import KFields, pair_relation, root_pair_terms, window_states
from .linalg import rank
from .scalar import Cyc, cyc_root_of_unity


def negation_theta(beta):
    """Root action of the principal automorphism in rank 1 (m = 2): the
    one-step map of the module's TwistData."""
    return tuple(-c for c in beta)


class _PrinAlg:
    @staticmethod
    def eps_roots(b1, b2):
        raise NotImplementedError(
            "structure constants for twisted root sums are not configured")


class PrincipalModule(KFields):
    """V(Gamma) with the principal k-fields and scalar Z-operators.
    theta_fn, the principal automorphism's one-step action on roots, is
    the step of the module's autom.TwistData; every eta is 1."""

    def __init__(self, rs, N: int, m: int, theta_fn, constants=None):
        self.rs = rs
        self.alg = _PrinAlg()
        self.m = m
        self.twist = TwistData(m, theta_fn)
        dim = 2 * N
        gram = [[0] * dim for _ in range(dim)]
        for i in range(N):
            gram[i][N + i] = 1
            gram[N + i][i] = 1
        super().__init__(FockSpace(gram, range(N), mode_scale=1, weight=m), N)
        self.orbits = self.twist.orbits(rs.roots)
        self.constants = None
        if constants is not None:
            self.set_constants(constants)

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

    def delta_coord(self, i) -> int:
        """Label coordinate read by d_i (1-based i)."""
        return i - 1

    def root_vec(self, beta):
        """The zero vector: the theta-fixed zero-weight Cartan acts by 0."""
        return (0,) * self.space.dim

    def form_xx(self, beta) -> Cyc:
        """The renormalized <x_beta, x_-beta> = -2/<beta, beta>."""
        return Cyc.rational(Fraction(-2, self.rs.form(beta, beta)))

    def z(self, beta, rvec) -> ScaledField:
        def build():
            f = ScaledField(self.k0(rvec), self.constant(beta))
            f.label = "Z%r%r" % (tuple(beta), tuple(rvec))
            return f

        return self._cached(("z", tuple(beta), tuple(rvec)), build)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def _fixed_cartan_dim(rs, twist):
    """dim h_0 = rank - rank(T - I), T the matrix with columns
    theta(alpha_i) in simple-root coordinates."""
    cols = [twist.theta_root(1, a) for a in rs.simple_roots]
    n = rs.rank
    return n - rank([[cols[j][i] - (1 if i == j else 0) for j in range(n)]
                     for i in range(n)])


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
    """The ten defining relations on window states, exactly: the D_k
    block checks.dk_relations (prin.1-6, 9, 10) with every k_i, i = 0..N,
    and the multidegrees rvecs[:3] for centrality, then prin.7, prin.8
    and prin.k_nontrivial."""
    if entries is None:
        entries = []
    if roots is None:
        roots = [tuple(b) for b in mod.rs.roots]
    if rvecs is None:
        rvecs = checks.default_rvecs(mod.N)
    states = window_states(mod.space, window)
    W = window.modes
    zero = mod.zero_r()
    ks = range(mod.N + 1)
    checks.dk_relations(entries, "prin", mod, roots, rvecs, ks, rvecs[:3],
                        states, W)

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
                           checks.holds, pair_relation(mod, b1, b2, rvec, svec),
                           states, W)

    # (8) brackets with the theta-fixed Cartan h_0, which the realization
    # takes to be trivial (roots embed as 0): check that it is
    dim_h0 = _fixed_cartan_dim(mod.rs, mod.twist)
    checks.run(entries, "prin.8", {"dim_h0": dim_h0}, bool, dim_h0 == 0)

    # the center acts nontrivially at desk scale
    rv = rvecs[1] if len(rvecs) > 1 else zero
    for j in ks:
        checks.run(entries, "prin.k_nontrivial", {"j": j},
                   checks.nonzero, mod.kf(j, rv), states, -W)
    return entries


# ---------------------------------------------------------------------------
# constant solver
# ---------------------------------------------------------------------------


def _sqrt_in_cyc(u: Cyc):
    """Both square roots of u in a cyclotomic field, for rational u; none
    ([]) when u is irrational or |u| is not the square of a rational."""
    if not u.is_rational():
        return []
    q = u.as_fraction()
    if not q:
        return [Cyc.zero()]
    num, den = abs(q.numerator), q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return []
    root = Cyc.rational(Fraction(rn, rd))
    if q < 0:
        root = root * cyc_root_of_unity(4, 1)
    return [root, -root]


def solve_prin_constants(mod: PrincipalModule, window: TruncationWindow):
    """Solve the quadratic relation for the orbit constant C.

    The relation is linear in u = C^2: on the vacuum space both sides
    are scalar series supported on the anti-diagonal, and matching the
    coefficients pins u.  The prefactors and the zero summands are those
    of root_pair_terms for the pair (beta, beta).  Returns every C in
    Q(zeta_M) with C^2 = u; each returned value must (and does) pass the
    verification suite.
    Returns [] when the window constraints are inconsistent or u has no
    square root in Q(zeta_M): a finding, not an input error.
    """
    if len(mod.orbits) != 1:
        raise NotImplementedError(
            "the constant solver needs a single theta-orbit")
    beta = mod.orbits[0][0]
    W = max(window.modes, 2)
    factors, terms = root_pair_terms(mod, beta, beta)
    coef = product_of_binomials(factors, W)
    zeros = [(a, lead * Fraction(1, mod.m)) for a, lead, summed in terms
             if summed is None]
    u = None
    for n in range(1, W + 1):
        la = coef[n]
        # the D k_0 terms of pair_relation at level 1: lead/m a^n n
        ra = sum((c * a ** n * n for a, c in zeros), Cyc.zero())
        if la:
            cand = ra / la
            if u is None:
                u = cand
            elif u != cand:
                return []
        elif ra:
            return []
    if u is None:
        raise ValueError("the window does not constrain the constant")
    return _sqrt_in_cyc(u)
