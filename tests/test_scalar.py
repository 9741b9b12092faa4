import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyc_oracle
from torlab.scalar import Cyc, cyclotomic_poly, cyc_root_of_unity


def test_i_squared():
    i = cyc_root_of_unity(4, 1)
    assert i * i == -1


def test_zeta_to_the_m_is_one():
    for m in (1, 2, 3, 4, 5, 6, 8, 12):
        assert cyc_root_of_unity(m, m) == 1


def test_geometric_sum_vanishes():
    for m in (2, 3, 4, 6, 8, 12):
        total = sum(cyc_root_of_unity(m, p) for p in range(m))
        assert total == 0


def test_inverse_and_identities():
    a = cyc_root_of_unity(12, 5) + Cyc.rational(Fraction(3, 7))
    assert a * a.inv() == 1
    assert a + Cyc.zero() == a
    with pytest.raises(ZeroDivisionError):
        Cyc.zero().inv()


def test_embed_zeta2_into_q_zeta4():
    z2 = cyc_root_of_unity(2, 1)
    z4 = cyc_root_of_unity(4, 1)
    assert z2.lift(4) == z4 * z4
    assert z2 == z4 * z4


def _random_element(rng, M):
    return sum(
        (Fraction(rng.randint(-4, 4), rng.randint(1, 5)) * cyc_root_of_unity(M, p)
         for p in range(rng.randint(1, 4))),
        Cyc.zero(),
    )


def test_field_axioms_randomized():
    rng = random.Random(20260825)
    for M in (4, 6, 12):
        for _ in range(40):
            a = _random_element(rng, M)
            b = _random_element(rng, M)
            c = _random_element(rng, M)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            if a != 0:
                assert a * a.inv() == 1


def test_embedding_is_ring_map():
    rng = random.Random(7)
    for _ in range(25):
        a = _random_element(rng, 6)
        b = _random_element(rng, 6)
        assert (a * b).lift(12) == a.lift(12) * b.lift(12)
        assert (a + b).lift(12) == a.lift(12) + b.lift(12)
        if a != b:
            assert a.lift(12) != b.lift(12)


def test_mixed_order_arithmetic():
    z3 = cyc_root_of_unity(3, 1)
    z4 = cyc_root_of_unity(4, 1)
    prod = z3 * z4
    assert prod == cyc_root_of_unity(12, 7)
    assert prod ** 12 == 1


def test_power_and_division():
    z8 = cyc_root_of_unity(8, 1)
    assert z8 ** 8 == 1
    assert z8 ** -1 == cyc_root_of_unity(8, 7)
    assert (z8 / z8) == 1


def test_json_roundtrip():
    a = cyc_root_of_unity(12, 5) + Cyc.rational(Fraction(-2, 3))
    assert Cyc.from_json(a.to_json()) == a


def test_lifted_value_hashes_like_itself():
    a = cyc_root_of_unity(3, 1)
    b = a.lift(6)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def _deg(M):
    return len(cyclotomic_poly(M)) - 1


def _reduce(raw, M):
    """The coefficient vector of the polynomial raw modulo Phi_M."""
    phi, deg = cyclotomic_poly(M), _deg(M)
    raw = [Fraction(c) for c in raw] + [Fraction(0)] * deg
    for k in range(len(raw) - 1, deg - 1, -1):
        for j in range(deg + 1):
            raw[k - deg + j] -= raw[k] * phi[j]
    return tuple(raw[:deg])


def _power(M, k):
    """zeta_M^k at order M, written out by hand."""
    return _reduce([0] * k + [1], M)


# a sum of c * zeta_M^p, the root written at the order M * s on request
_TERMS = st.lists(st.tuples(st.integers(-3, 3),
                            st.sampled_from((1, 2, 3, 4, 6, 8, 12)),
                            st.integers(0, 23), st.integers(1, 2)),
                  min_size=1, max_size=4)


def _value(terms, lifted):
    out = Cyc.zero()
    for c, M, p, s in terms:
        if lifted:
            z = Cyc(M * s, _power(M * s, p * s))
        else:
            z = cyc_root_of_unity(M, p)
        out = out + c * z
    return out


def _stored(x):
    return (repr(x), x.to_json(), (x.order, x.coeffs))


@settings(max_examples=150, deadline=None)
@given(_TERMS, _TERMS, st.fractions(max_denominator=9))
@example([(1, 12, 1, 1)], [(1, 3, 1, 2)], Fraction(1, 4))
def test_equal_values_hash_equal(t1, t2, q):
    """a == b implies equal hash, repr, to_json and (order, coeffs),
    whatever computation reached each value: over roots of unity built
    at a higher order than their own, sums and products across orders
    (their lcm), and from_json at a higher order."""
    a1, a2 = _value(t1, False), _value(t1, True)
    b1, b2 = _value(t2, False), _value(t2, True)
    pairs = [(a1, a2), (a1 + b1, b2 + a2), (a1 * b1, b2 * a2),
             (a1 * a1 + q, q + a2 * a2)]
    if a1 == b1:
        pairs.append((a1, b2))
    rational = Cyc.rational(q)
    pairs += [(rational, Cyc(12, (q, 0, 0, 0))),
              (rational, Cyc.from_json({"order": 4,
                                        "coeffs": [str(q), "0"]})),
              (Cyc.rational(Fraction(1, 4)),
               Cyc.from_json({"order": 4, "coeffs": ["1/4", "0"]})),
              # zeta_12^4 = zeta_3 through order 12; Q(zeta_6) = Q(zeta_3)
              (cyc_root_of_unity(3, 1), cyc_root_of_unity(12, 1) ** 4),
              (1 + cyc_root_of_unity(3, 1), cyc_root_of_unity(6, 1))]
    for x, y in pairs:
        assert x == y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1
        assert _stored(x) == _stored(y)
    assert hash(rational) == hash(q)
    assert rational.to_json() == {"order": 1, "coeffs": [str(q)]}


# -- a rational operand against a value at a higher order ----------------


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _values(draw):
    """A value built at one of the orders 2..12, coefficients often zero."""
    M = draw(st.sampled_from((2, 3, 4, 5, 6, 8, 12)))
    coeffs = draw(st.lists(st.one_of(st.just(Fraction(0)), _RATIONALS),
                           min_size=_deg(M), max_size=_deg(M)))
    return Cyc(M, coeffs)


def _lifted(q, M):
    """q at order M, written out: (q, 0, ..., 0)."""
    return (Fraction(q),) + (Fraction(0),) * (_deg(M) - 1)


def _by_hand(op, u, v, M):
    """u op v for coefficient vectors at order M: the polynomial sum,
    difference or product reduced modulo Phi_M."""
    if op == "+":
        return tuple(x + y for x, y in zip(u, v))
    if op == "-":
        return tuple(x - y for x, y in zip(u, v))
    if op == "/":
        return _by_hand("*", u, _at(Cyc(M, v).inv(), M), M)
    raw = [Fraction(0)] * (2 * len(u) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            raw[i + j] += x * y
    return _reduce(raw, M)


def _at(r, M):
    """r's coefficient vector at order M, a multiple of r.order, by hand."""
    raw = [0] * M
    for k, c in enumerate(r.coeffs):
        raw[k * (M // r.order)] += c
    return _reduce(raw, M)


def _galois(co, a, M):
    """The image of the vector co at order M under zeta_M -> zeta_M^a."""
    raw = [Fraction(0)] * (a * M)
    for k, c in enumerate(co):
        raw[a * k] += c
    return _reduce(raw, M)


def _minimal_order(co, M):
    """The least d | M with the value co at order M in Q(zeta_d): fixed by
    every zeta_M -> zeta_M^a with a = 1 mod d."""
    for d in range(1, M + 1):
        units = [a for a in range(1, M + 1) if gcd(a, M) == 1 and a % d == 1 % d]
        if M % d == 0 and all(_galois(co, a, M) == co for a in units):
            return d


@settings(max_examples=300, deadline=None)
@given(_values(), st.one_of(st.integers(-3, 3), _RATIONALS,
                            _RATIONALS.map(Cyc.rational)))
@example(Cyc(2, (-1,)), 3)                 # order 2 is stored at order 1
@example(Cyc(2, (Fraction(3, 2),)), 0)
@example(Cyc(4, (1, -2)), Cyc.rational(0))  # a zero product is 0 at order 1
@example(Cyc(12, (0,) * 4), Fraction(2, 3))
def test_rational_operand_matches_the_lifted_computation(x, q):
    """x op q and q op x, for q an int, a Fraction or an order-1 Cyc, equal
    the computation with q lifted to x's order by hand, as a value, and
    are stored at their minimal order with Fraction coefficients."""
    M = x.order
    u, v = x.coeffs, _lifted(q if not isinstance(q, Cyc) else q.coeffs[0], M)
    got = [(x + q, "+", u, v), (q + x, "+", v, u),
           (x - q, "-", u, v), (q - x, "-", v, u),
           (x * q, "*", u, v), (q * x, "*", v, u)]
    if v[0]:
        got.append((x / q, "/", u, v))
    else:
        with pytest.raises(ZeroDivisionError):
            x / q
    if any(u):
        got.append((q / x, "/", v, u))
    else:
        with pytest.raises(ZeroDivisionError):
            q / x
    for r, op, a, b in got:
        want = _by_hand(op, a, b, M)
        assert _at(r, M) == want, op
        assert r.order == _minimal_order(want, M), op
        assert all(type(c) is Fraction for c in r.coeffs)
    for eq in (x == q, q == x):
        assert eq is (u == v)
    assert (x != q) is (q != x) is (u != v)


# -- against the Fraction-vector oracle ----------------------------------


_ORACLE_ORDERS = (1, 3, 4, 5, 8, 12)
_SCALARS = st.one_of(st.integers(-6, 6),
                     st.fractions(min_value=-5, max_value=5,
                                  max_denominator=12))


@st.composite
def _twins(draw):
    """One value as a Cyc and as an oracle Cyc, built from the same
    coefficient vector at one of _ORACLE_ORDERS, coefficients often 0."""
    M = draw(st.sampled_from(_ORACLE_ORDERS))
    co = draw(st.lists(st.one_of(st.just(0), _SCALARS),
                       min_size=_deg(M), max_size=_deg(M)))
    return Cyc(M, co), cyc_oracle.Cyc(M, co)


def _agrees(got, want):
    """got is stored in lowest terms, is the value the constructor gives
    for want's coefficients, and has want's order, coeffs, repr, to_json
    and hash."""
    assert type(got) is Cyc
    assert got.den > 0 and gcd(*got.nums, got.den) == 1
    assert got == Cyc(want.order, want.coeffs)
    assert (got.order, got.coeffs, repr(got), got.to_json(), hash(got)) == \
        (want.order, want.coeffs, repr(want), want.to_json(), hash(want))


def _agree_or_raise(f, x, xo):
    """f(x) agrees with f(xo), or both raise ZeroDivisionError."""
    try:
        want = f(xo)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            f(x)
        return
    _agrees(f(x), want)


# zeta_12 + zeta_12^3 / 2 and -1/3 - zeta_12: two values at order 12
# whose sum, -1/3 + zeta_4 / 2, lies in Q(zeta_4)
_Z12 = ((0, 1, 0, Fraction(1, 2)), (Fraction(-1, 3), -1, 0, 0))


@settings(max_examples=250, deadline=None)
@given(_twins(), _twins(), st.integers(-3, 3), st.sampled_from((1, 2, 3)))
@example((Cyc(12, _Z12[0]), cyc_oracle.Cyc(12, _Z12[0])),
         (Cyc(12, _Z12[1]), cyc_oracle.Cyc(12, _Z12[1])), -2, 2)
def test_operations_match_the_fraction_oracle(x, y, n, k):
    """+, -, *, /, inv, ** (negative n too), lift and negation agree
    with the Fraction-vector Cyc of tests/cyc_oracle.py in order,
    coeffs, repr, to_json and hash, and keep the stored form canonical."""
    (a, ao), (b, bo) = x, y
    _agrees(a, ao)
    _agrees(Cyc.from_json(ao.to_json()), ao)
    _agrees(a + b, ao + bo)
    _agrees(a - b, ao - bo)
    _agrees(a * b, ao * bo)
    _agrees(-a, -ao)
    _agrees(a.lift(a.order * k), ao.lift(ao.order * k))
    _agree_or_raise(lambda v: v[0] / v[1], (a, b), (ao, bo))
    _agree_or_raise(lambda v: v.inv(), b, bo)
    _agree_or_raise(lambda v: v ** n, b, bo)
    assert (a == b) is (ao == bo)


@settings(max_examples=250, deadline=None)
@given(_twins(), _SCALARS)
@example((Cyc(4, (Fraction(1, 2), Fraction(3, 2))),
          cyc_oracle.Cyc(4, (Fraction(1, 2), Fraction(3, 2)))), 2)
@example((Cyc(1, (Fraction(5, 6),)), cyc_oracle.Cyc(1, (Fraction(5, 6),))),
         Fraction(1, 6))
def test_rational_operands_match_the_fraction_oracle(x, q):
    """x op q and q op x for an int, a Fraction and an order-1 Cyc q
    agree with the oracle, as do the comparisons with q."""
    a, ao = x
    for r, ro in ((q, q), (Cyc.rational(q), cyc_oracle.Cyc.rational(q))):
        _agrees(a + r, ao + ro)
        _agrees(r + a, ro + ao)
        _agrees(a - r, ao - ro)
        _agrees(r - a, ro - ao)
        _agrees(a * r, ao * ro)
        _agrees(r * a, ro * ao)
        _agree_or_raise(lambda v: v[0] / v[1], (a, r), (ao, ro))
        _agree_or_raise(lambda v: v[0] / v[1], (r, a), (ro, ao))
    assert (a == q) is (ao == q) is (q == a)
    assert hash(Cyc.rational(q)) == hash(q)
