"""Exact arithmetic in cyclotomic fields Q(zeta_M).

A value is a residue modulo the M-th cyclotomic polynomial Phi_M with
Fraction coefficients, so equality is literal identity of the canonical
coefficient vector.  Rationals live at order 1.  No floating point
anywhere.

A rational operand (an int, a Fraction or an order-1 Cyc) never lifts:
against a value x at order M > 1 it scales every coefficient (x * q,
x / q; q / x scales the inverse of x) or shifts the constant one (sum,
difference).  The result is
stored exactly as if the rational had been lifted to order M: at order M,
a zero product as M's zero vector, and at M = 2, where Q(zeta_2) has
degree 1, a product at order 1 but a sum at order 2.  Only operands at
two different orders above 1 are lifted, into the lcm order.
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


def _mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


@lru_cache(maxsize=None)
def _trace_row(M: int) -> tuple[Fraction, ...]:
    """Tr(zeta_M^k) / phi(M) = mu(n) / phi(n), n = M / gcd(M, k), for each
    power k of the basis."""
    row = []
    for k in range(_phi_deg(M)):
        n = M // gcd(M, k)
        row.append(Fraction(_mobius(n), _phi_deg(n)))
    return tuple(row)


def _mean_trace(a: "Cyc") -> Fraction:
    """Tr(a) / [Q(zeta_M):Q], the same at every order a is lifted to."""
    return sum(c * t for c, t in zip(a.coeffs, _trace_row(a.order)))


class Cyc:
    """An element of Q(zeta_M), immutable and canonical."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        co = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if len(co) != _phi_deg(order):
            raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", co)

    def __setattr__(self, *a):
        raise AttributeError("Cyc is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyc":
        return Cyc(1, (Fraction(q),))

    @staticmethod
    def zero() -> "Cyc":
        return _ZERO

    @staticmethod
    def one() -> "Cyc":
        return _ONE

    # -- structure ----------------------------------------------------

    def lift(self, order: int) -> "Cyc":
        """Re-embed into Q(zeta_order); self.order must divide order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("target order not a multiple")
        step = order // self.order
        deg = _phi_deg(order)
        out = [Fraction(0)] * deg
        for k, c in enumerate(self.coeffs):
            if c:
                row = _power_row(order, k * step)
                for i in range(deg):
                    out[i] += c * row[i]
        return Cyc(order, out)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        if self.order == 1:
            return True
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value: %r" % (self,))
        return self.coeffs[0]

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyc):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyc(1, (Fraction(x),))
        return NotImplemented

    def _pair(self, other):
        if self.order == other.order:
            return self, other
        m = lcm(self.order, other.order)
        return self.lift(m), other.lift(m)

    def _scaled(self, q) -> "Cyc":
        """self * q for a rational q, stored as the product with q lifted
        to self's order is: at order 1 when self's degree is 1, as the
        zero vector of self's order when q is 0."""
        co = self.coeffs
        if len(co) == 1:
            return _mk1(co[0] * q)
        if not q:
            return Cyc(self.order, (Fraction(0),) * len(co))
        return Cyc(self.order, tuple(c * q for c in co))

    def _plus(self, q, sign=1) -> "Cyc":
        """q + sign * self for a rational q, at self's order: q lifted is
        (q, 0, ..., 0), so only the constant coefficient takes it."""
        co = self.coeffs
        if sign == 1:
            return Cyc(self.order, (co[0] + q,) + co[1:])
        return Cyc(self.order, (q - co[0],) + tuple(-c for c in co[1:]))

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
        a, b = self._pair(other)
        return Cyc(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.order, tuple(-c for c in self.coeffs))

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
        a, b = self._pair(other)
        return Cyc(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        if self.order > 1 and isinstance(other, (int, Fraction)):
            return self._plus(other, -1)
        other = Cyc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

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
        a, b = self._pair(other)
        deg = len(a.coeffs)
        if deg == 1:
            return _mk1(a.coeffs[0] * b.coeffs[0])
        # a rational value stored at a higher order
        if not any(a.coeffs[1:]):
            return b._scaled(a.coeffs[0])
        if not any(b.coeffs[1:]):
            return a._scaled(b.coeffs[0])
        raw = [Fraction(0)] * (2 * deg - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        raw[i + j] += x * y
        out = list(raw[:deg])
        rows = _reduction_rows(a.order)
        for j in range(deg, 2 * deg - 1):
            c = raw[j]
            if c:
                row = rows[j - deg]
                for i in range(deg):
                    out[i] += c * row[i]
        return Cyc(a.order, out)

    __rmul__ = __mul__

    def inv(self) -> "Cyc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        if self.is_rational():
            return Cyc(self.order, (1 / self.coeffs[0],) + (Fraction(0),) * (len(self.coeffs) - 1))
        # extended Euclid in Q[x] against Phi_M
        mod = [Fraction(c) for c in cyclotomic_poly(self.order)]
        a = list(self.coeffs)
        while a and not a[-1]:
            a.pop()
        r0, r1 = mod, a
        s0, s1 = [], [Fraction(1)]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                c = 1 / r1[0]
                deg = len(self.coeffs)
                out = [Fraction(0)] * deg
                for i, v in enumerate(s1):
                    out[i % deg] += c * v  # s1 has degree < deg already
                return Cyc(self.order, out)
            q, rem = _poly_divmod_frac(r0, r1)
            s_new = _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, rem
            s0, s1 = s1, s_new

    def __truediv__(self, other):
        if self.order > 1:
            q = _rational_value(other)
            if q is not None:
                if not q:
                    raise ZeroDivisionError("inverse of zero cyclotomic value")
                return self._scaled(1 / Fraction(q))
        other = Cyc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1 and other.order > 1:
            return other.inv()._scaled(self.coeffs[0])
        a, b = self._pair(other)
        return a * b.inv()

    def __rtruediv__(self, other):
        if self.order > 1 and isinstance(other, (int, Fraction)):
            return self.inv()._scaled(other)
        other = Cyc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

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
        if self.order > 1:
            q = _rational_value(other)
            if q is not None:
                return self.coeffs[0] == q and not any(self.coeffs[1:])
        elif isinstance(other, Cyc) and other.order > 1:
            return other.__eq__(self)
        other = Cyc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    def __hash__(self):
        # equal values stored at different orders must hash alike, so an
        # irrational value hashes by the mean traces of itself and its
        # square, which do not depend on the order it is stored at
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((_mean_trace(self), _mean_trace(self * self)))

    def __repr__(self):
        if self.is_rational():
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


def _poly_divmod_frac(num, den):
    num = list(num)
    dd = len(den) - 1
    q = [Fraction(0)] * max(len(num) - dd, 1)
    inv_lead = 1 / den[-1]
    for k in range(len(num) - dd - 1, -1, -1):
        c = num[k + dd] * inv_lead
        q[k] = c
        if c:
            for j, d in enumerate(den):
                num[k + j] -= c * d
    return q, num[:dd]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


_ZERO = Cyc(1, (Fraction(0),))
_ONE = Cyc(1, (Fraction(1),))

_setattr = object.__setattr__


def _mk1(q) -> Cyc:
    """Order-1 constructor bypassing validation (hot-path helper)."""
    out = object.__new__(Cyc)
    _setattr(out, "order", 1)
    _setattr(out, "coeffs", (q if type(q) is Fraction else Fraction(q),))
    return out


def _rational_value(x):
    """x's value if x is an int, a Fraction or an order-1 Cyc, else None."""
    if isinstance(x, Cyc):
        return x.coeffs[0] if x.order == 1 else None
    if isinstance(x, (int, Fraction)):
        return x
    return None


def cyc_root_of_unity(M: int, p: int) -> Cyc:
    """zeta_M^p in canonical form; its multiplicative order is M/gcd(M,p)."""
    if M < 1:
        raise ValueError("order must be positive")
    p %= M
    d = gcd(M, p) if p else M
    ordr = M // d
    # store at the minimal order so rationals stay order-1
    pp = p // d
    if ordr == 1:
        return _ONE
    return Cyc(ordr, _power_row(ordr, pp))
