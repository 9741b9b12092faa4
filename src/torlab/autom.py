"""Finite-order automorphisms of the Chevalley algebra.

An automorphism is stored as its action on basis symbols (a column map).
Diagram automorphisms are seeded on simple root vectors with a searched
sign vector and extended through bracket words; the same closure engine
builds arbitrary automorphisms from generator images, which is how the
principal automorphism of a twisted context is realized.

TwistData holds the theta data that the toroidal verifier and the Fock,
Z-algebra and principal modules read: TwistData.of(aut) for an
automorphism, TwistData(m) for the identity at order m.
"""

from __future__ import annotations

from . import linalg
from .rootsys import ChevalleyAlgebra, GElement
from .scalar import Cyc, cyc_root_of_unity


class Automorphism:
    def __init__(self, alg: ChevalleyAlgebra, action: dict, order: int):
        self.alg = alg
        self.action = action  # symbol -> GElement
        self.order = order
        self.w = cyc_root_of_unity(order, 1)
        self._powers = [None, self]
        self._root_perm = ()

    def apply(self, u: GElement) -> GElement:
        out = GElement()
        for sym, c in u.terms.items():
            out = out + self.action[sym].scale(c)
        return out

    def power(self, p: int) -> "Automorphism":
        p %= self.order
        while len(self._powers) <= p:
            prev = self._powers[-1]
            action = {s: self.apply(img) for s, img in prev.action.items()}
            self._powers.append(Automorphism(self.alg, action, self.order))
        if p == 0:
            return identity_automorphism(self.alg)
        return self._powers[p]

    def root_permutation(self):
        """Map on roots, or None if some x_alpha is not sent to a root line."""
        if self._root_perm != ():
            return self._root_perm
        perm = {}
        for a in self.alg.rs.roots:
            img = self.action[("x", a)]
            if len(img.terms) != 1:
                perm = None
                break
            (sym, _), = img.terms.items()
            if sym[0] != "x":
                perm = None
                break
            perm[a] = sym[1]
        object.__setattr__(self, "_root_perm", perm)
        return perm

    def validate(self):
        alg = self.alg
        basis = [GElement({s: Cyc.one()}) for s in alg.symbols]
        for i, u in enumerate(basis):
            for v in basis[i:]:
                if not alg.bracket(self.apply(u), self.apply(v)) == self.apply(alg.bracket(u, v)):
                    raise ValueError("bracket not preserved")
                if not alg.form(self.apply(u), self.apply(v)) == alg.form(u, v):
                    raise ValueError("form not preserved")
        pw = self.power(self.order - 1) if self.order > 1 else self
        if self.order > 1:
            comp = {s: pw.apply(self.action[s]) for s in alg.symbols}
            ident = {s: GElement({s: Cyc.one()}) for s in alg.symbols}
            if any(comp[s] != ident[s] for s in alg.symbols):
                raise ValueError("automorphism order is not %d" % self.order)
        return self


def identity_automorphism(alg: ChevalleyAlgebra) -> Automorphism:
    action = {s: GElement({s: Cyc.one()}) for s in alg.symbols}
    aut = Automorphism(alg, action, 1)
    return aut


def automorphism_from_generator_images(alg: ChevalleyAlgebra, pairs, order: int):
    """Extend generator images through bracket words to a full automorphism.

    pairs: list of (GElement, GElement).  Returns None if the images are
    bracket-inconsistent or do not span the algebra.
    """
    span = linalg.Span()    # coordinate vectors spanning the known domain
    images = []             # matching image elements
    for u, au in pairs:
        if not _absorb(alg, span, images, u, au):
            return None
    domain = span.vectors
    frontier = list(range(len(domain)))
    while frontier:
        fresh = []
        for i in range(len(domain)):
            for j in frontier:
                u = alg.from_vector(domain[i])
                v = alg.from_vector(domain[j])
                w = alg.bracket(u, v)
                if w.is_zero():
                    continue
                n0 = len(domain)
                ok = _absorb(alg, span, images, w, alg.bracket(images[i], images[j]))
                if not ok:
                    return None
                if len(domain) > n0:
                    fresh.append(n0)
        frontier = fresh
    if len(domain) < alg.dim:
        return None
    action = {}
    for s in alg.symbols:
        target = [Cyc.one() if t == s else Cyc.zero() for t in alg.symbols]
        action[s] = _combine(span.coords(target), images)
    return Automorphism(alg, action, order)


def _combine(coeffs, images):
    out = GElement()
    for c, im in zip(coeffs, images):
        if c:
            out = out + im.scale(c)
    return out


def _absorb(alg, span, images, u, au):
    """Add (u, au) to the span; check consistency if already in span."""
    vec = alg.to_vector(u)
    coeffs = span.coords(vec)
    if coeffs is None:
        span.add(vec)
        images.append(au)
        return True
    return _combine(coeffs, images) == au


def diagram_automorphism(alg: ChevalleyAlgebra, perm, order: int) -> Automorphism:
    """Automorphism from a Dynkin-node permutation, with a sign search.

    perm is a list: node i maps to node perm[i].  The sign freedom on
    non-simple root vectors means a seed of +1 signs may be bracket
    inconsistent; we search sign vectors, all-plus first.
    """
    rs = alg.rs
    import itertools
    for signs in itertools.product((1, -1), repeat=rs.rank):
        pairs = []
        ok_order = all(signs[i] * signs[perm[i]] == 1 for i in range(rs.rank))
        if not ok_order and order == 2:
            continue
        for i in range(rs.rank):
            a = rs.simple_roots[i]
            b = rs.simple_roots[perm[i]]
            na = tuple(-x for x in a)
            nb = tuple(-x for x in b)
            pairs.append((GElement.x(a), GElement.x(b).scale(signs[i])))
            pairs.append((GElement.x(na), GElement.x(nb).scale(signs[i])))
            pairs.append((GElement.h(a), GElement.h(b)))
        aut = automorphism_from_generator_images(alg, pairs, order)
        if aut is None:
            continue
        try:
            return aut.validate()
        except ValueError:
            continue
    raise ValueError("no consistent sign assignment for diagram automorphism")


def eigenspace_decompose(aut: Automorphism, x: GElement):
    """Components x_i with aut(x_i) = w^i x_i; their sum is x."""
    m = aut.order
    if m == 1:
        return [(0, x)] if not x.is_zero() else []
    minv = Cyc.rational(1) / m
    out = []
    applied = [x]
    for p in range(1, m):
        applied.append(aut.power(p).apply(x))
    for i in range(m):
        comp = GElement()
        for p in range(m):
            comp = comp + applied[p].scale(cyc_root_of_unity(m, (-i * p) % m))
        comp = comp.scale(minv)
        if not comp.is_zero():
            out.append((i, comp))
    return out


def eta(aut: Automorphism, p: int, beta) -> Cyc:
    """Scalar with aut^p (x_beta) = eta * x_(theta^p beta), for an aut
    that permutes the root lines (TwistData.of checks that it does)."""
    (_sym, coeff), = aut.power(p).apply(GElement.x(beta)).terms.items()
    return coeff


class TwistData:
    """The theta data of the relations: the order m, the root action
    theta^p, the scalars eta_p(beta) with
    theta^p(x_beta) = eta_p(beta) x_(theta^p beta), and zeta_m^power.

    theta^p iterates the one-step root map step, p mod m times, and
    eta_fn(p, beta) gives the scalars.  The defaults are the identity
    twist at order m: step the identity on roots, every eta 1."""

    def __init__(self, m: int = 1, step=tuple, eta_fn=None):
        self.m = m
        self._step = step
        self._eta = eta_fn

    @classmethod
    def of(cls, aut: Automorphism) -> "TwistData":
        """theta and eta of aut, which must permute the root lines."""
        perm = aut.root_permutation()
        if perm is None:
            raise ValueError("automorphism does not permute the root lines")
        return cls(aut.order, perm.__getitem__,
                   lambda p, beta: eta(aut, p, beta))

    def theta_root(self, p, beta):
        beta = tuple(beta)
        for _ in range(p % self.m):
            beta = tuple(self._step(beta))
        return beta

    def orbits(self, roots):
        """The theta-orbits through roots, in the order of roots, each
        walked from its first member there."""
        seen = set()
        out = []
        for beta in map(tuple, roots):
            if beta in seen:
                continue
            orbit = [beta]
            for _ in range(self.m - 1):
                nxt = self.theta_root(1, orbit[-1])
                if nxt == beta:
                    break
                orbit.append(nxt)
            seen.update(orbit)
            out.append(tuple(orbit))
        return out

    def eta(self, p, beta) -> Cyc:
        return Cyc.one() if self._eta is None else self._eta(p, beta)

    def root_of_unity(self, power) -> Cyc:
        return cyc_root_of_unity(self.m, power)


def untwisted_affine_cartan(rs) -> list:
    """Affine Cartan matrix with node 0 attached through the highest root."""
    psi = rs.highest_root()
    n = rs.rank + 1
    mat = [[0] * n for _ in range(n)]
    mat[0][0] = 2
    for i in range(rs.rank):
        for j in range(rs.rank):
            mat[i + 1][j + 1] = rs.cartan[i][j]
        pair = rs.form(psi, rs.simple_roots[i])
        mat[0][i + 1] = -pair
        mat[i + 1][0] = -pair
    return mat


def affine_marks(cartan):
    """(marks, comarks): primitive positive right/left null vectors."""
    n = len(cartan)
    rows = [[Cyc.rational(c) for c in row] for row in cartan]
    marks = linalg.int_nullvector(rows)
    cols = [[Cyc.rational(cartan[j][i]) for j in range(n)] for i in range(n)]
    comarks = linalg.int_nullvector(cols)
    return marks, comarks
