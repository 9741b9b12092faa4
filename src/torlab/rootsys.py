"""Simply-laced root systems, the extended lattice with its 2-cocycle,
and the finite-dimensional Lie algebra in its Chevalley presentation.
LinearCombination is the one linear-combination class of the algebra
layer: GElement here and toroidal.TorElement add only their names and
constructors.

Roots are integer tuples in simple-root coordinates; the Gram matrix of
that basis is the Cartan matrix, so (alpha, alpha) = 2 for every root.
"""

from __future__ import annotations

from .scalar import Cyc


def cartan_matrix(kind: str, rank: int):
    if kind == "A" and rank >= 1:
        edges = [(i, i + 1) for i in range(rank - 1)]
    elif kind == "D" and rank >= 3:
        edges = [(i, i + 1) for i in range(rank - 3)] + [(rank - 3, rank - 2), (rank - 3, rank - 1)]
    elif kind == "E" and rank in (6, 7, 8):
        # chain 0..rank-2 with node rank-1 attached to node 2
        edges = [(i, i + 1) for i in range(rank - 2)] + [(2, rank - 1)]
    else:
        raise ValueError("not a valid ADE type: %s%d" % (kind, rank))
    mat = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        mat[i][j] = mat[j][i] = -1
    return mat


class RootSystem:
    """An ADE root system with all roots enumerated."""

    def __init__(self, kind: str, rank: int):
        self.kind = kind
        self.rank = rank
        self.cartan = cartan_matrix(kind, rank)
        self.simple_roots = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
        self.roots = self._enumerate()
        self.root_set = set(self.roots)

    def form(self, u, v) -> int:
        return sum(u[i] * self.cartan[i][j] * v[j]
                   for i in range(self.rank) for j in range(self.rank) if u[i] and v[j])

    def _enumerate(self):
        # closure of the simple roots under simple reflections
        found = set(self.simple_roots)
        frontier = list(found)
        while frontier:
            nxt = []
            for a in frontier:
                pair = [sum(a[i] * self.cartan[i][j] for i in range(self.rank))
                        for j in range(self.rank)]
                for i in range(self.rank):
                    b = list(a)
                    b[i] -= pair[i]
                    b = tuple(b)
                    if b not in found:
                        found.add(b)
                        nxt.append(b)
            frontier = nxt
        return sorted(found)

    def highest_root(self):
        return max(self.roots, key=lambda a: (sum(a), a))


def build_root_system(kind: str, rank: int) -> RootSystem:
    return RootSystem(kind, rank)


class Lattice:
    """Q extended by N null pairs (delta_i, d_i), with the sign cocycle.

    Basis order: simple roots, then delta_1..delta_N, then d_1..d_N.
    The cocycle is eps(b_i, b_i) = (-1)^((b_i,b_i)/2), eps(b_i, b_j) =
    (-1)^((b_i,b_j)) for i > j and 1 for i < j, bimultiplicatively
    extended; with this basis order eps(alpha, delta_r) = 1.
    """

    def __init__(self, rs: RootSystem, N: int):
        self.rs = rs
        self.N = N
        self.dim = rs.rank + 2 * N
        g = [[0] * self.dim for _ in range(self.dim)]
        for i in range(rs.rank):
            for j in range(rs.rank):
                g[i][j] = rs.cartan[i][j]
        for i in range(N):
            g[rs.rank + i][rs.rank + N + i] = 1
            g[rs.rank + N + i][rs.rank + i] = 1
        self.gram = g
        # parity matrix: eps(u, v) = (-1)^(u . E . v)
        E = [[0] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            E[i][i] = (g[i][i] // 2) % 2
            for j in range(i):
                E[i][j] = g[i][j] % 2
        self._parity = E

    def form(self, u, v) -> int:
        g = self.gram
        return sum(u[i] * g[i][j] * v[j]
                   for i in range(self.dim) if u[i]
                   for j in range(self.dim) if v[j])

    def eps(self, u, v) -> int:
        E = self._parity
        par = 0
        for i in range(self.dim):
            if u[i]:
                row = E[i]
                for j in range(self.dim):
                    if v[j] and row[j]:
                        par += u[i] * v[j]
        return -1 if par % 2 else 1

    def embed_root(self, alpha):
        return tuple(alpha) + (0,) * (2 * self.N)

    def delta(self, rvec):
        return (0,) * self.rs.rank + tuple(rvec) + (0,) * self.N


class LinearCombination:
    """Finite Cyc-linear combination of basis symbols: terms maps each
    symbol to its nonzero coefficient.  Sums, differences, negation and
    scale return the class of the left operand; == compares only within
    one class and returns NotImplemented for any other operand, and the
    combinations are mutable values, so not hashable."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return type(self)(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)({k: -v for k, v in self.terms.items()})

    def scale(self, c):
        if not c:
            return type(self)()
        return type(self)({k: v * c for k, v in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.terms)


class GElement(LinearCombination):
    """Combination of Chevalley basis symbols ("x", root) and ("h", i),
    h_i the simple coroot."""

    __slots__ = ()

    @staticmethod
    def x(root, coeff=None) -> "GElement":
        return GElement({("x", tuple(root)): coeff if coeff is not None else Cyc.one()})

    @staticmethod
    def h(vec, coeff=None) -> "GElement":
        """Cartan element h_v for v in simple-root coordinates."""
        c = coeff if coeff is not None else Cyc.one()
        terms = {}
        for i, vi in enumerate(vec):
            if vi:
                terms[("h", i)] = c * vi
        return GElement(terms)


class ChevalleyAlgebra:
    """The Lie algebra on x_alpha, h_i with the cocycle-twisted bracket."""

    def __init__(self, rs: RootSystem, lattice: Lattice | None = None):
        self.rs = rs
        self.lattice = lattice if lattice is not None else Lattice(rs, 0)
        self.symbols = [("x", a) for a in rs.roots] + [("h", i) for i in range(rs.rank)]
        self.index = {s: i for i, s in enumerate(self.symbols)}
        self.dim = len(self.symbols)
        self._brackets = {}

    def eps_roots(self, a, b) -> int:
        return self.lattice.eps(self.lattice.embed_root(a), self.lattice.embed_root(b))

    def bracket_basis(self, s1, s2):
        key = (s1, s2)
        hit = self._brackets.get(key)
        if hit is not None:
            return hit
        rs = self.rs
        out = {}
        if s1[0] == "h" and s2[0] == "h":
            pass
        elif s1[0] == "h":
            a = s2[1]
            pair = sum(rs.cartan[s1[1]][j] * a[j] for j in range(rs.rank))
            if pair:
                out[("x", a)] = Cyc.rational(pair)
        elif s2[0] == "h":
            a = s1[1]
            pair = sum(rs.cartan[s2[1]][j] * a[j] for j in range(rs.rank))
            if pair:
                out[("x", a)] = Cyc.rational(-pair)
        else:
            a, b = s1[1], s2[1]
            s = tuple(x + y for x, y in zip(a, b))
            if s in rs.root_set:
                out[("x", s)] = Cyc.rational(self.eps_roots(a, b))
            elif not any(s):
                # [x_a, x_{-a}] = eps(a, -a) h_a = -h_a
                for i, ai in enumerate(a):
                    if ai:
                        out[("h", i)] = Cyc.rational(self.eps_roots(a, b) * ai)
        self._brackets[key] = out
        return out

    def bracket(self, u: GElement, v: GElement) -> GElement:
        acc = {}
        for s1, c1 in u.terms.items():
            for s2, c2 in v.terms.items():
                base = self.bracket_basis(s1, s2)
                if base:
                    c = c1 * c2
                    for sym, sc in base.items():
                        prev = acc.get(sym)
                        val = sc * c if prev is None else prev + sc * c
                        if val:
                            acc[sym] = val
                        else:
                            acc.pop(sym, None)
        return GElement(acc)

    def form_basis(self, s1, s2) -> int:
        """The invariant form on basis symbols: <x_a, x_-a> = -1,
        <h_i, h_j> the Cartan matrix entry, every other pairing 0."""
        if s1[0] == "x" and s2[0] == "x":
            return 0 if any(x + y for x, y in zip(s1[1], s2[1])) else -1
        if s1[0] == "h" and s2[0] == "h":
            return self.rs.cartan[s1[1]][s2[1]]
        return 0

    def form(self, u: GElement, v: GElement) -> Cyc:
        total = Cyc.zero()
        for s1, c1 in u.terms.items():
            for s2, c2 in v.terms.items():
                g = self.form_basis(s1, s2)
                if g:
                    total = total + c1 * c2 * g
        return total

    def to_vector(self, u: GElement):
        vec = [Cyc.zero()] * self.dim
        for sym, c in u.terms.items():
            vec[self.index[sym]] = c
        return vec

    def from_vector(self, vec) -> GElement:
        return GElement({self.symbols[i]: c for i, c in enumerate(vec) if c})
