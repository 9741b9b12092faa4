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
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
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


def solve(mat, rhs):
    """One solution of A x = b, or None if inconsistent."""
    rows = _copy(mat)
    b = [as_cyc(x) for x in rhs]
    aug = [row + [bx] for row, bx in zip(rows, b)]
    red, pivots = rref(aug)
    ncols = len(mat[0]) if mat else 0
    if ncols in pivots:
        return None
    x = [Cyc.zero()] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def express_in_span(vectors, target):
    """Coefficients c with sum c_i vectors_i = target, or None."""
    if not vectors:
        return [] if all(not as_cyc(t) for t in target) else None
    cols = [[as_cyc(v[i]) for v in vectors] for i in range(len(target))]
    return solve(cols, target)


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
