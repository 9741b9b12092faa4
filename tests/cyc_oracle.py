"""The Fraction-vector Cyc, kept as the oracle that tests/test_scalar.py
compares torlab.scalar.Cyc with.

This is the earlier implementation of torlab.scalar: a value of Q(zeta_M)
stored at its minimal order as a tuple of Fraction coefficients, every
operation done in Fraction arithmetic.  torlab.scalar now stores integer
numerators over one denominator; both must agree on every result in
order, coeffs, repr, to_json and hash.  Nothing under src/ imports this
module.  The description of its storage follows.

A value is a residue modulo the M-th cyclotomic polynomial Phi_M with
Fraction coefficients, stored at its minimal order: the smallest M with
the value in Q(zeta_M).  Rationals live at order 1, and no order
M = 2 mod 4 survives, since Q(zeta_M) = Q(zeta_{M/2}) there.  Storage is
a function of the value, so equality is identity of (order, coefficient
vector), and repr, to_json and hash depend on the value alone.  No
floating point anywhere.

Only a result that can leave the field of its operands is reduced to its
minimal order: a sum, difference or product of two values at orders
above 1, a lift, and a value built by the constructor or read by
from_json.  A rational operand (an int, a Fraction or an order-1 Cyc)
never lifts: against a value x at order M > 1 it scales every
coefficient (x * q, x / q; q / x scales the inverse of x) or shifts the
constant one (sum, difference), and the result keeps x's minimal order,
or is 0 at order 1 when it scales by 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


def _poly_divmod_int(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, remainder known to be zero
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(num[k + len(den) - 1], den[-1])
        assert r == 0
        out[k] = q
        for j, c in enumerate(den):
            num[k + j] -= q * c
    assert all(c == 0 for c in num)
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(M: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_M, low degree first, monic."""
    if M < 1:
        raise ValueError("order must be positive")
    if M == 1:
        return (-1, 1)
    poly = [0] * M + [1]
    poly[0] = -1  # x^M - 1
    for d in range(1, M):
        if M % d == 0:
            poly = _poly_divmod_int(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_deg(M: int) -> int:
    return len(cyclotomic_poly(M)) - 1


@lru_cache(maxsize=None)
def _reduction_rows(M: int) -> tuple[tuple[Fraction, ...], ...]:
    """x^(deg+j) mod Phi_M for j = 0..deg-2, as coefficient rows."""
    phi = cyclotomic_poly(M)
    deg = len(phi) - 1
    # x^deg = -(phi[0] + ... + phi[deg-1] x^{deg-1})
    top = [Fraction(-c) for c in phi[:deg]]
    rows = [tuple(top)]
    for _ in range(deg - 2):
        prev = rows[-1]
        nxt = [Fraction(0)] + list(prev[: deg - 1])
        lead = prev[deg - 1]
        if lead:
            for i in range(deg):
                nxt[i] += lead * top[i]
        rows.append(tuple(nxt))
    return tuple(rows)


@lru_cache(maxsize=None)
def _power_row(M: int, p: int) -> tuple[Fraction, ...]:
    """Coefficient vector of x^p mod Phi_M (p >= 0)."""
    deg = _phi_deg(M)
    if p < deg:
        row = [Fraction(0)] * deg
        row[p] = Fraction(1)
        return tuple(row)
    if p <= 2 * deg - 2:
        return _reduction_rows(M)[p - deg]
    prev = _power_row(M, p - 1)
    row = [Fraction(0)] + list(prev[: deg - 1])
    lead = prev[deg - 1]
    if lead:
        top = _reduction_rows(M)[0]
        for i in range(deg):
            row[i] += lead * top[i]
    return tuple(row)


@lru_cache(maxsize=None)
def _descents(M: int):
    """(d, lift, left) for each maximal proper subfield Q(zeta_d), d > 1,
    of Q(zeta_M): lift holds the columns of the embedding of Q(zeta_d)
    into Q(zeta_M), left the rows of a left inverse of it, both as sparse
    (index, coefficient) pairs.  d is M/p for a prime p dividing M, halved
    where M/p = 2 mod 4.  Order 1 is left out: a rational is seen at once
    as a vector with no coefficient beyond the constant one."""
    out = []
    for p in range(2, M + 1):
        if M % p or any(p % q == 0 for q in range(2, p)):
            continue
        d = M // p
        if d % 4 == 2:
            d //= 2
        if d == 1:
            continue
        cols = [_power_row(M, k * (M // d)) for k in range(_phi_deg(d))]
        lift = tuple(tuple((i, c) for i, c in enumerate(col) if c)
                     for col in cols)
        out.append((d, lift, _left_inverse(cols, _phi_deg(M))))
    return tuple(out)


def _left_inverse(cols, n):
    """Sparse rows of a left inverse of the n-row matrix with these
    linearly independent columns.  Gauss-Jordan on the transpose, beside
    the identity, picks one pivot coordinate per column; the inverse
    reads the vector at the pivots only."""
    k = len(cols)
    a = [list(col) + [Fraction(int(i == j)) for j in range(k)]
         for i, col in enumerate(cols)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, k) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(k):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        if len(pivots) == k:
            break
    return tuple(tuple((pivots[j], a[j][n + col]) for j in range(k)
                       if a[j][n + col])
                 for col in range(k))


def _canon(order, co) -> "Cyc":
    """The value with coefficient vector co at order, stored at its
    minimal order: descend into a maximal subfield while the value lies
    in it, which the left inverse of the lift tests."""
    co = tuple(co)
    if not any(co[1:]):
        return _mk1(co[0])
    for d, lift, left in _descents(order):
        sub = [sum(c * co[i] for i, c in row) for row in left]
        back = [0] * len(co)
        for col, y in zip(lift, sub):
            if y:
                for i, c in col:
                    back[i] += c * y
        if tuple(back) == co:
            return _canon(d, sub)
    return _new(order, co)


def _substitute(co, N: int, e: int):
    """The coefficient vector at order N of sum_k co[k] zeta_N^(e k)."""
    out = [Fraction(0)] * _phi_deg(N)
    for k, c in enumerate(co):
        if c:
            for i, r in enumerate(_power_row(N, e * k % N)):
                if r:
                    out[i] += c * r
    return tuple(out)


class Cyc:
    """An element of Q(zeta_M), immutable and stored at its minimal order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        co = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if len(co) != _phi_deg(order):
            raise ValueError("coefficient vector has wrong length")
        v = _canon(order, co)
        object.__setattr__(self, "order", v.order)
        object.__setattr__(self, "coeffs", v.coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Cyc is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyc":
        return _mk1(q)

    @staticmethod
    def zero() -> "Cyc":
        return _ZERO

    @staticmethod
    def one() -> "Cyc":
        return _ONE

    # -- structure ----------------------------------------------------

    def _at(self, order: int):
        """The coefficient vector of self re-embedded into Q(zeta_order);
        self.order must divide order."""
        if order % self.order:
            raise ValueError("target order not a multiple")
        return _substitute(self.coeffs, order, order // self.order)

    def lift(self, order: int) -> "Cyc":
        """The value re-embedded into Q(zeta_order), order a multiple of
        self.order; stored, like every value, at its minimal order."""
        return _canon(order, self._at(order))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return self.order == 1

    def as_fraction(self) -> Fraction:
        if self.order != 1:
            raise ValueError("not a rational value: %r" % (self,))
        return self.coeffs[0]

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyc):
            return x
        if isinstance(x, (int, Fraction)):
            return _mk1(x)
        return NotImplemented

    def _pair(self, other):
        """(order, u, v): the coefficient vectors of self and other at the
        lcm of their orders."""
        if self.order == other.order:
            return self.order, self.coeffs, other.coeffs
        m = lcm(self.order, other.order)
        return m, self._at(m), other._at(m)

    def _scaled(self, q) -> "Cyc":
        """self * q for a rational q and self at an order above 1."""
        if not q:
            return _ZERO
        return _new(self.order, tuple(c * q for c in self.coeffs))

    def _plus(self, q, sign=1) -> "Cyc":
        """q + sign * self for a rational q and self at an order above 1:
        only the constant coefficient takes q."""
        co = self.coeffs
        if sign == 1:
            return _new(self.order, (co[0] + q,) + co[1:])
        return _new(self.order, (q - co[0],) + tuple(-c for c in co[1:]))

    def __add__(self, other):
        if isinstance(other, Cyc):
            if other.order == 1:
                if self.order == 1:
                    return _mk1(self.coeffs[0] + other.coeffs[0])
                return self._plus(other.coeffs[0])
            if self.order == 1:
                return other._plus(self.coeffs[0])
        elif isinstance(other, (int, Fraction)):
            if self.order == 1:
                return _mk1(self.coeffs[0] + other)
            return self._plus(other)
        else:
            return NotImplemented
        M, u, v = self._pair(other)
        return _canon(M, [x + y for x, y in zip(u, v)])

    __radd__ = __add__

    def __neg__(self):
        return _new(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, Cyc):
            if other.order == 1:
                if self.order == 1:
                    return _mk1(self.coeffs[0] - other.coeffs[0])
                return self._plus(-other.coeffs[0])
            if self.order == 1:
                return other._plus(self.coeffs[0], -1)
        elif isinstance(other, (int, Fraction)):
            if self.order == 1:
                return _mk1(self.coeffs[0] - other)
            return self._plus(-other)
        else:
            return NotImplemented
        M, u, v = self._pair(other)
        return _canon(M, [x - y for x, y in zip(u, v)])

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if self.order == 1:
            return _mk1(other - self.coeffs[0])
        return self._plus(other, -1)

    def __mul__(self, other):
        if isinstance(other, Cyc):
            if other.order == 1:
                if self.order == 1:
                    return _mk1(self.coeffs[0] * other.coeffs[0])
                return self._scaled(other.coeffs[0])
            if self.order == 1:
                return other._scaled(self.coeffs[0])
        elif isinstance(other, (int, Fraction)):
            if self.order == 1:
                return _mk1(self.coeffs[0] * other)
            return self._scaled(other)
        else:
            return NotImplemented
        M, u, v = self._pair(other)
        deg = len(u)
        raw = [Fraction(0)] * (2 * deg - 1)
        for i, x in enumerate(u):
            if x:
                for j, y in enumerate(v):
                    if y:
                        raw[i + j] += x * y
        out = raw[:deg]
        rows = _reduction_rows(M)
        for j in range(deg, 2 * deg - 1):
            c = raw[j]
            if c:
                row = rows[j - deg]
                for i in range(deg):
                    out[i] += c * row[i]
        return _canon(M, out)

    __rmul__ = __mul__

    def inv(self) -> "Cyc":
        """1 / self: the product of the other Galois conjugates of self
        over the norm, which is rational.  A conjugate keeps self's
        minimal order, and so does the inverse."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        M = self.order
        if M == 1:
            return _mk1(1 / self.coeffs[0])
        conj = _ONE
        for a in range(2, M):
            if gcd(a, M) == 1:
                conj = conj * _new(M, _substitute(self.coeffs, M, a))
        return conj * (1 / (self * conj).coeffs[0])

    def __truediv__(self, other):
        if isinstance(other, Cyc):
            if other.order > 1:
                return self * other.inv()
            other = other.coeffs[0]
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        return self * (1 / Fraction(other))

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inv() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = Cyc.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / display ----------------------------------------

    def __eq__(self, other):
        if isinstance(other, Cyc):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.order == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if self.order == 1:
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self):
        if self.order == 1:
            return "Cyc(%s)" % self.coeffs[0]
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append("%s*z%d^%d" % (c, self.order, k))
        return "Cyc(" + " + ".join(terms) + ")"

    # -- serialization ------------------------------------------------

    def to_json(self):
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj) -> "Cyc":
        return Cyc(obj["order"], tuple(Fraction(s) for s in obj["coeffs"]))


_setattr = object.__setattr__


def _new(order: int, co: tuple) -> Cyc:
    """A Cyc from a Fraction vector already at its minimal order, with no
    validation and no reduction (hot-path helper)."""
    out = object.__new__(Cyc)
    _setattr(out, "order", order)
    _setattr(out, "coeffs", co)
    return out


def _mk1(q) -> Cyc:
    """Order-1 constructor bypassing validation (hot-path helper)."""
    out = object.__new__(Cyc)
    _setattr(out, "order", 1)
    _setattr(out, "coeffs", (q if type(q) is Fraction else Fraction(q),))
    return out


_ZERO = _mk1(0)
_ONE = _mk1(1)


def cyc_root_of_unity(M: int, p: int) -> Cyc:
    """zeta_M^p; its multiplicative order is M/gcd(M,p)."""
    if M < 1:
        raise ValueError("order must be positive")
    d = gcd(M, p % M)
    return Cyc(M // d, _power_row(M // d, p % M // d))
