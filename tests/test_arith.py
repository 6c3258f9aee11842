import random
from fractions import Fraction

import pytest

from satura.arith import (QQ, DenominatorVanishes, InvalidModulus, PrimeField,
                          ZeroInversion, field_from_descriptor,
                          is_probable_prime, prime_field,
                          reduce_rational_mod_p, xgcd)

PRIMES = (2, 3, 5, 7, 251, 8191, 32003, 32771, (1 << 31) + 11)
COMPOSITES = (0, 1, 4, 9, 561, 32769, 32003 * 32771, 1 << 40)


def test_primality_knowns():
    for p in PRIMES:
        assert is_probable_prime(p), p
    for n in COMPOSITES:
        assert not is_probable_prime(n), n


def test_xgcd_bezout():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.randrange(1, 10 ** 9), rng.randrange(1, 10 ** 9)
        g, u, v = xgcd(a, b)
        assert u * a + v * b == g
        assert a % g == 0 and b % g == 0


def test_field_axioms_fuzz():
    rng = random.Random(2)
    for p in (5, 251, 32003):
        F = prime_field(p)
        for _ in range(100):
            a, b, c = (rng.randrange(p) for _ in range(3))
            assert F.add(a, b) == (a + b) % p
            assert F.sub(a, b) == (a - b) % p
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
                assert F.div(b, a) == F.mul(b, F.inv(a))


def test_zero_inversion():
    F = prime_field(7)
    with pytest.raises(ZeroInversion):
        F.inv(0)
    with pytest.raises(ZeroInversion):
        F.div(3, 0)


def test_from_fraction():
    F = prime_field(13)
    assert F.from_fraction(Fraction(1, 2)) == F.inv(2)
    assert F.from_fraction(Fraction(-3, 5)) == F.mul(F.from_int(-3), F.inv(5))
    with pytest.raises(DenominatorVanishes):
        F.from_fraction(Fraction(1, 13))
    assert reduce_rational_mod_p(Fraction(22, 7), 5) == (22 * pow(7, -1, 5)) % 5


def test_invalid_modulus():
    with pytest.raises(InvalidModulus):
        prime_field(10)
    with pytest.raises(InvalidModulus):
        prime_field(1)
    # 2^62 headroom cap: the next prime past it is rejected
    with pytest.raises(InvalidModulus):
        prime_field((1 << 62) + 135)


def test_descriptor_round_trip():
    for p in (5, 32003):
        F = prime_field(p)
        assert field_from_descriptor(F.descriptor) is F
    assert field_from_descriptor("Q") == QQ
    with pytest.raises(ValueError):
        field_from_descriptor("GF:9")


def test_string_forms():
    F = prime_field(11)
    for a in range(11):
        assert F.from_str(F.to_str(a)) == a
    assert QQ.from_str(QQ.to_str(Fraction(-7, 3))) == Fraction(-7, 3)


def test_shared_instances():
    assert prime_field(32003) is prime_field(32003)
    assert prime_field(32003) == PrimeField(32003)
    assert prime_field(32003) != prime_field(32771)


def test_element_canonicalises_ints_and_fractions():
    F = prime_field(7)
    assert [F.element(c) for c in (0, 7, -3, 15, 2 ** 70)] == \
        [0, 0, 4, 1, 2 ** 70 % 7]
    assert F.element(Fraction(1, 2)) == 4
    assert F.element(Fraction(-14, 3)) == 0
    with pytest.raises(DenominatorVanishes):
        F.element(Fraction(1, 7))
    for c in (3, Fraction(-7, 3)):
        e = QQ.element(c)
        assert type(e) is Fraction and e == c
    for field in (F, QQ):
        for bad in (1.5, "3", None, 2j):
            with pytest.raises(TypeError):
                field.element(bad)


def test_rational_inverse_of_int_is_exact():
    for got in (QQ.inv(3), QQ.div(1, 3), QQ.div(Fraction(2, 3), 2)):
        assert type(got) is Fraction and got == Fraction(1, 3)
    assert QQ.inv(Fraction(-2, 5)) == Fraction(-5, 2)
    with pytest.raises(ZeroInversion):
        QQ.div(1, 0)
