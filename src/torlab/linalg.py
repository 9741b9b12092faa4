"""Small exact linear algebra over Q(zeta_M).

Matrices are lists of rows of Cyc values.  Everything here is Gaussian
elimination on tiny systems; no pivot-size heuristics are needed because
the arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalar import Cyc


def as_cyc(x) -> Cyc:
    if isinstance(x, Cyc):
        return x
    return Cyc.rational(Fraction(x))


def _copy(mat):
    return [[as_cyc(x) for x in row] for row in mat]


def rref(mat):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = _copy(mat)
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inv()
        prow = rows[r] = [inv * x if x else x for x in rows[r]]
        nz = [k for k, y in enumerate(prow) if y]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                for k in nz:
                    row[k] = row[k] - f * prow[k]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(mat) -> int:
    return len(rref(mat)[1])


def nullspace(mat):
    """Basis of the right kernel, one vector per free column."""
    rows, pivots = rref(mat)
    if not rows:
        return []
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Cyc.zero()] * ncols
        vec[fc] = Cyc.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


class Span:
    """A growing list of vectors in echelon form: each independent vector
    adds itself reduced against the rows before it, scaled to 1 at its
    first nonzero column (the pivot), with its combination of the vectors
    added.  A row is zero at the earlier pivots, so one pass reduces."""

    def __init__(self, vectors=()):
        self.vectors = []   # every vector added, dependent ones included
        self.rows = []      # (pivot, row, its nonzero columns, {index: c})
        for vec in vectors:
            self.add(vec)

    def __len__(self):
        return len(self.rows)

    def _reduce(self, vec):
        """vec less its part in the span, and that part's combination."""
        v = [as_cyc(x) for x in vec]
        combo = {}
        for p, row, nz, rc in self.rows:
            f = v[p]
            if f:
                for k in nz:
                    v[k] = v[k] - f * row[k]
                for k, c in rc.items():
                    combo[k] = combo[k] + f * c if k in combo else f * c
        return v, combo

    def add(self, vec) -> bool:
        """Add vec; False, with no new row, if it lies in the span."""
        v, combo = self._reduce(vec)
        index = len(self.vectors)
        self.vectors.append(vec)
        p = next((k for k, x in enumerate(v) if x), None)
        if p is None:
            return False
        inv = v[p].inv()
        row = [inv * x if x else x for x in v]
        rc = {k: -inv * c for k, c in combo.items()}
        rc[index] = inv
        self.rows.append((p, row, [k for k, x in enumerate(row) if x], rc))
        return True

    def coords(self, target):
        """c with sum c_i v_i = target, one per vector added, or None: the
        independent vectors carry the combination, each dependent one 0."""
        v, combo = self._reduce(target)
        if any(v):
            return None
        return [combo.get(k, Cyc.zero()) for k in range(len(self.vectors))]


def int_nullvector(mat):
    """Primitive positive integer kernel vector of a corank-1 integer matrix."""
    basis = nullspace(mat)
    if len(basis) != 1:
        raise ValueError("matrix does not have corank 1 (got %d)" % len(basis))
    fracs = [v.as_fraction() for v in basis[0]]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    if any(v < 0 for v in ints):
        if all(v <= 0 for v in ints):
            ints = [-v for v in ints]
        else:
            raise ValueError("kernel vector is not sign-definite")
    if any(v == 0 for v in ints):
        raise ValueError("kernel vector has a zero entry")
    return ints
