import random
from fractions import Fraction

import pytest

from torlab.scalar import Cyc, cyc_root_of_unity


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
