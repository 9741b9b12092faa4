"""Exact arithmetic in cyclotomic fields Q(zeta_M).

A value is a residue modulo the M-th cyclotomic polynomial Phi_M, stored
as integer numerators over one denominator: its order M, nums (one int
per coefficient of 1, zeta_M, ..., zeta_M^(deg-1)) and den > 0, with
gcd(nums..., den) = 1.  Phi_M is monic with integer coefficients, so
x^p mod Phi_M has integer coefficients for every p >= 0: the reduction
rows, the power rows and the substitution zeta_M -> zeta_N^e are integer
matrices.  A sum, difference, product or rational scaling is therefore
int arithmetic on the numerators with one gcd for the result, and no
Fraction is built on the way.  coeffs writes the vector out as Fractions
(each in lowest terms) for a reader.

A value is stored at its minimal order: the smallest M with the value in
Q(zeta_M).  Rationals live at order 1, and no order M = 2 mod 4
survives, since Q(zeta_M) = Q(zeta_{M/2}) there.  Storage is a function
of the value, so equality is identity of (order, nums, den), and repr,
to_json and hash depend on the value alone; repr, to_json and hash read
the coefficients as the Fractions nums[k] / den, so they are those of a
vector of Fractions.  No floating point anywhere.

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
    """phi(M), the degree of Phi_M, from the prime factors of M: no
    polynomial is built, so a large order costs only trial division."""
    if M < 1:
        raise ValueError("order must be positive")
    out = rest = M
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            out -= out // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        out -= out // rest
    return out


@lru_cache(maxsize=None)
def _reduction_rows(M: int) -> tuple[tuple[int, ...], ...]:
    """x^(deg+j) mod Phi_M for j = 0..deg-2, as integer coefficient rows."""
    phi = cyclotomic_poly(M)
    deg = len(phi) - 1
    # x^deg = -(phi[0] + ... + phi[deg-1] x^{deg-1})
    top = [-c for c in phi[:deg]]
    rows = [tuple(top)]
    for _ in range(deg - 2):
        prev = rows[-1]
        nxt = [0] + list(prev[: deg - 1])
        lead = prev[deg - 1]
        if lead:
            for i in range(deg):
                nxt[i] += lead * top[i]
        rows.append(tuple(nxt))
    return tuple(rows)


@lru_cache(maxsize=None)
def _power_row(M: int, p: int) -> tuple[int, ...]:
    """Integer coefficient vector of x^p mod Phi_M (p >= 0)."""
    deg = _phi_deg(M)
    if p < deg:
        row = [0] * deg
        row[p] = 1
        return tuple(row)
    if p <= 2 * deg - 2:
        return _reduction_rows(M)[p - deg]
    prev = _power_row(M, p - 1)
    row = [0] + list(prev[: deg - 1])
    lead = prev[deg - 1]
    if lead:
        top = _reduction_rows(M)[0]
        for i in range(deg):
            row[i] += lead * top[i]
    return tuple(row)


@lru_cache(maxsize=None)
def _descents(M: int):
    """(d, lift, left, scale) for each maximal proper subfield Q(zeta_d),
    d > 1, of Q(zeta_M): lift holds the columns of the embedding of
    Q(zeta_d) into Q(zeta_M), left the rows of a left inverse of it times
    scale, the least positive int that makes them integral; both as sparse
    (index, int) pairs.  d is M/p for a prime p dividing M, halved where
    M/p = 2 mod 4.  Order 1 is left out: a rational is seen at once as a
    vector with no coefficient beyond the constant one."""
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
        left = _left_inverse(cols, _phi_deg(M))
        scale = lcm(*(c.denominator for row in left for _i, c in row))
        left = tuple(tuple((i, c.numerator * (scale // c.denominator))
                           for i, c in row) for row in left)
        out.append((d, lift, left, scale))
    return tuple(out)


def _left_inverse(cols, n):
    """Sparse rows of a left inverse of the n-row matrix with these
    linearly independent columns, as Fractions.  Gauss-Jordan on the
    transpose, beside the identity, picks one pivot coordinate per
    column; the inverse reads the vector at the pivots only."""
    k = len(cols)
    a = [[Fraction(c) for c in col] + [Fraction(int(i == j)) for j in range(k)]
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


def _canon(order, co, den) -> "Cyc":
    """The value co / den (co a vector of ints at order, den > 0) stored
    at its minimal order and in lowest terms: descend into a maximal
    subfield while the value lies in it, which the left inverse of the
    lift tests, then divide out the gcd."""
    if not any(co[1:]):
        return _mk1(co[0], den)
    for d, lift, left, scale in _descents(order):
        sub = [sum(c * co[i] for i, c in row) for row in left]
        back = [0] * len(co)
        for col, y in zip(lift, sub):
            if y:
                for i, c in col:
                    back[i] += c * y
        if all(b == c * scale for b, c in zip(back, co)):
            return _canon(d, sub, den * scale)
    return _lowest(order, co, den)


def _lowest(order, co, den) -> "Cyc":
    """The value co / den at order, which is its minimal order, with the
    gcd of co and den divided out."""
    g = gcd(*co, den)
    if g == 1:
        return _new(order, tuple(co), den)
    return _new(order, tuple(c // g for c in co), den // g)


def _substitute(co, N: int, e: int):
    """The integer vector at order N of sum_k co[k] zeta_N^(e k)."""
    out = [0] * _phi_deg(N)
    for k, c in enumerate(co):
        if c:
            for i, r in enumerate(_power_row(N, e * k % N)):
                if r:
                    out[i] += c * r
    return out


def _ratstr(n: int, d: int) -> str:
    """n / d in lowest terms, written as str(Fraction(n, d)) writes it."""
    g = gcd(n, d)
    if g == d:
        return str(n // g)
    return "%d/%d" % (n // g, d // g)


class Cyc:
    """An element of Q(zeta_M), immutable and stored at its minimal order."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs):
        co = [c if isinstance(c, (int, Fraction)) else Fraction(c)
              for c in coeffs]
        # the order is an int; phi(M) >= sqrt(M / 2), so an order too
        # large for the vector is refused before it is factored, in time
        # bounded by the input
        if (type(order) is not int or 2 * len(co) ** 2 < order
                or len(co) != _phi_deg(order)):
            raise ValueError("coefficient vector has wrong length")
        den = lcm(*(c.denominator for c in co))
        v = _canon(order, [c.numerator * (den // c.denominator) for c in co],
                   den)
        _set_order(self, v.order)
        _set_nums(self, v.nums)
        _set_den(self, v.den)

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

    @property
    def coeffs(self) -> tuple:
        """The coefficient vector as Fractions nums[k] / den."""
        d = self.den
        return tuple(Fraction(n, d) for n in self.nums)

    def _at(self, order: int):
        """The numerators of self re-embedded into Q(zeta_order), over
        self.den; self.order must divide order."""
        if order % self.order:
            raise ValueError("target order not a multiple")
        return _substitute(self.nums, order, order // self.order)

    def lift(self, order: int) -> "Cyc":
        """The value re-embedded into Q(zeta_order), order a multiple of
        self.order; stored, like every value, at its minimal order."""
        return _canon(order, self._at(order), self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return self.order == 1

    def as_fraction(self) -> Fraction:
        if self.order != 1:
            raise ValueError("not a rational value: %r" % (self,))
        return Fraction(self.nums[0], self.den)

    # -- arithmetic ---------------------------------------------------
    #
    # Each operator reads a rational operand as (n, d), d > 0: an int as
    # (n, 1), a Fraction or an order-1 Cyc by its numerator and
    # denominator.

    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyc):
            return x
        if isinstance(x, (int, Fraction)):
            return _mk1(x)
        return NotImplemented

    def _pair(self, other):
        """(order, u, v): the numerators of self and other at the lcm of
        their orders, over self.den and other.den."""
        if self.order == other.order:
            return self.order, self.nums, other.nums
        m = lcm(self.order, other.order)
        return m, self._at(m), other._at(m)

    def _scaled(self, n: int, d: int) -> "Cyc":
        """self * n / d for ints n and d > 0, self at an order above 1."""
        if not n:
            return _ZERO
        den = self.den
        if d == 1:
            # gcd(nums, den) = 1, so only n and den can share a factor
            g = gcd(n, den)
            if g != 1:
                n //= g
                den //= g
            return _new(self.order, tuple(c * n for c in self.nums), den)
        return _lowest(self.order, [c * n for c in self.nums], den * d)

    def _plus(self, n: int, d: int, sign=1) -> "Cyc":
        """n / d + sign * self for ints n and d > 0, self at an order above
        1: only the constant coefficient takes n / d.  With d = 1 the
        numerators change by a multiple of den, so no gcd appears."""
        co, den = self.nums, self.den
        if sign != 1:
            co = tuple(-c for c in co)
        if d == 1:
            return _new(self.order, (co[0] + n * den,) + co[1:], den)
        co = [c * d for c in co]
        co[0] += n * den
        return _lowest(self.order, co, den * d)

    def _sum(self, other, sign=1) -> "Cyc":
        """self + sign * other, both at orders above 1."""
        M, u, v = self._pair(other)
        du, dv = self.den, other.den
        if du == dv:
            if sign == 1:
                return _canon(M, [x + y for x, y in zip(u, v)], du)
            return _canon(M, [x - y for x, y in zip(u, v)], du)
        if sign == 1:
            return _canon(M, [x * dv + y * du for x, y in zip(u, v)], du * dv)
        return _canon(M, [x * dv - y * du for x, y in zip(u, v)], du * dv)

    def __add__(self, other):
        if isinstance(other, int):
            n, d = other, 1
        elif isinstance(other, Cyc):
            if other.order != 1:
                if self.order == 1:
                    return other._plus(self.nums[0], self.den)
                return self._sum(other)
            n, d = other.nums[0], other.den
        elif isinstance(other, Fraction):
            n, d = other.numerator, other.denominator
        else:
            return NotImplemented
        if self.order == 1:
            return _mk1(self.nums[0] * d + n * self.den, self.den * d)
        return self._plus(n, d)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.order, tuple(-c for c in self.nums), self.den)

    def __sub__(self, other):
        if isinstance(other, int):
            n, d = other, 1
        elif isinstance(other, Cyc):
            if other.order != 1:
                if self.order == 1:
                    return other._plus(self.nums[0], self.den, -1)
                return self._sum(other, -1)
            n, d = other.nums[0], other.den
        elif isinstance(other, Fraction):
            n, d = other.numerator, other.denominator
        else:
            return NotImplemented
        if self.order == 1:
            return _mk1(self.nums[0] * d - n * self.den, self.den * d)
        return self._plus(-n, d)

    def __rsub__(self, other):
        if isinstance(other, int):
            n, d = other, 1
        elif isinstance(other, Fraction):
            n, d = other.numerator, other.denominator
        else:
            return NotImplemented
        if self.order == 1:
            return _mk1(n * self.den - self.nums[0] * d, self.den * d)
        return self._plus(n, d, -1)

    def __mul__(self, other):
        if isinstance(other, int):
            n, d = other, 1
        elif isinstance(other, Cyc):
            if other.order != 1:
                if self.order == 1:
                    return other._scaled(self.nums[0], self.den)
                return self._product(other)
            n, d = other.nums[0], other.den
        elif isinstance(other, Fraction):
            n, d = other.numerator, other.denominator
        else:
            return NotImplemented
        if self.order == 1:
            return _mk1(self.nums[0] * n, self.den * d)
        return self._scaled(n, d)

    __rmul__ = __mul__

    def _product(self, other) -> "Cyc":
        """self * other, both at orders above 1: the integer product of
        the numerator polynomials reduced by the integer rows of Phi_M."""
        M, u, v = self._pair(other)
        deg = len(u)
        raw = [0] * (2 * deg - 1)
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
        return _canon(M, out, self.den * other.den)

    def _scaled_by(self, n: int, d: int) -> "Cyc":
        """self * n / d for ints n and d > 0, at any order."""
        if self.order == 1:
            return _mk1(self.nums[0] * n, self.den * d)
        return self._scaled(n, d)

    def inv(self) -> "Cyc":
        """1 / self: the product of the other Galois conjugates of self
        over the norm, which is rational.  A conjugate keeps self's
        minimal order and its lowest terms (the Galois action is an
        invertible integer matrix), and so does the inverse."""
        n = self.nums[0]
        M = self.order
        if M == 1:
            if not n:
                raise ZeroDivisionError("inverse of zero cyclotomic value")
            return _mk1(self.den, n) if n > 0 else _mk1(-self.den, -n)
        conj = _ONE
        for a in range(2, M):
            if gcd(a, M) == 1:
                conj = conj * _new(M, tuple(_substitute(self.nums, M, a)),
                                   self.den)
        norm = self * conj
        n, d = norm.nums[0], norm.den
        return conj._scaled_by(d, n) if n > 0 else conj._scaled_by(-d, -n)

    def __truediv__(self, other):
        if isinstance(other, int):
            n, d = other, 1
        elif isinstance(other, Cyc):
            if other.order != 1:
                return self * other.inv()
            n, d = other.nums[0], other.den
        elif isinstance(other, Fraction):
            n, d = other.numerator, other.denominator
        else:
            return NotImplemented
        if not n:
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        if n < 0:
            n, d = -n, -d
        return self._scaled_by(d, n)

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
            return (self.order == other.order and self.den == other.den
                    and self.nums == other.nums)
        if isinstance(other, int):
            return self.order == 1 and self.den == 1 and self.nums[0] == other
        if isinstance(other, Fraction):
            return (self.order == 1 and self.den == other.denominator
                    and self.nums[0] == other.numerator)
        return NotImplemented

    def __hash__(self):
        # the hash of the Fraction coefficients: an integral Fraction
        # hashes as its int
        if self.den == 1:
            if self.order == 1:
                return hash(self.nums[0])
            return hash((self.order, self.nums))
        if self.order == 1:
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.order, self.coeffs))

    def __repr__(self):
        d = self.den
        if self.order == 1:
            return "Cyc(%s)" % _ratstr(self.nums[0], d)
        terms = ["%s*z%d^%d" % (_ratstr(n, d), self.order, k)
                 for k, n in enumerate(self.nums) if n]
        return "Cyc(" + " + ".join(terms) + ")"

    # -- serialization ------------------------------------------------

    def to_json(self):
        d = self.den
        return {"order": self.order,
                "coeffs": [_ratstr(n, d) for n in self.nums]}

    @staticmethod
    def from_json(obj) -> "Cyc":
        return Cyc(obj["order"], tuple(Fraction(s) for s in obj["coeffs"]))


# The slot setters: they write the fields of a new value past
# Cyc.__setattr__, which refuses every assignment.
_set_order = Cyc.__dict__["order"].__set__
_set_nums = Cyc.__dict__["nums"].__set__
_set_den = Cyc.__dict__["den"].__set__
_alloc = object.__new__


def _new(order: int, nums: tuple, den: int) -> Cyc:
    """A Cyc from integer numerators over den, already at its minimal
    order and in lowest terms, with no validation and no reduction
    (hot-path helper)."""
    out = _alloc(Cyc)
    _set_order(out, order)
    _set_nums(out, nums)
    _set_den(out, den)
    return out


def _mk1(q, den=1) -> Cyc:
    """Order-1 constructor bypassing validation (hot-path helper): the
    rational q / den for an int q and an int den > 0, or the rational q
    (an int, a Fraction or anything Fraction reads) with den = 1."""
    if type(q) is int:
        if den != 1:
            g = gcd(q, den)
            if g != 1:
                q //= g
                den //= g
    else:
        if type(q) is not Fraction:
            q = Fraction(q)
        q, den = q.numerator, q.denominator
    out = _alloc(Cyc)
    _set_order(out, 1)
    _set_nums(out, (q,))
    _set_den(out, den)
    return out


_ZERO = _mk1(0)
_ONE = _mk1(1)


def cyc_root_of_unity(M: int, p: int) -> Cyc:
    """zeta_M^p; its multiplicative order is M/gcd(M,p)."""
    if M < 1:
        raise ValueError("order must be positive")
    d = gcd(M, p % M)
    return Cyc(M // d, _power_row(M // d, p % M // d))
