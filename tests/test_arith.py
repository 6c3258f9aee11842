import random
from array import array
from fractions import Fraction

import pytest

from satura.arith import (QQ, DenominatorVanishes, InvalidModulus,
                          PackedEchelon, PrimeField, ZeroInversion,
                          field_from_descriptor, is_probable_prime, prime_field)

PRIMES = (2, 3, 5, 7, 251, 8191, 32003, 32771, (1 << 31) + 11)
COMPOSITES = (0, 1, 4, 9, 561, 32769, 32003 * 32771, 1 << 40)


def test_primality_knowns():
    for p in PRIMES:
        assert is_probable_prime(p), p
    for n in COMPOSITES:
        assert not is_probable_prime(n), n


def test_field_axioms_fuzz():
    rng = random.Random(2)
    for p in (5, 251, 32003):
        F = prime_field(p)
        for _ in range(100):
            a, b, c = (rng.randrange(p) for _ in range(3))
            assert F.element(a + b) == (a + b) % p
            assert F.element(a - b) == (a - b) % p
            assert F.element(a * (b + c)) == F.element(a * b + a * c)
            assert F.element(a + b * p) == a
            if a:
                assert a * F.inv(a) % p == 1
                assert F.element(Fraction(b, a)) == b * F.inv(a) % p


def test_zero_inversion():
    F = prime_field(7)
    with pytest.raises(ZeroInversion):
        F.inv(0)


def test_from_fraction():
    F = prime_field(13)
    assert F.element(Fraction(1, 2)) == F.inv(2)
    assert F.element(Fraction(-3, 5)) == -3 * F.inv(5) % 13
    with pytest.raises(DenominatorVanishes):
        F.element(Fraction(1, 13))
    assert prime_field(5).element(Fraction(22, 7)) == (22 * pow(7, -1, 5)) % 5


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
        assert F.from_str(str(a)) == a
    assert QQ.from_str(str(Fraction(-7, 3))) == Fraction(-7, 3)


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
    got = QQ.inv(3)
    assert type(got) is Fraction and got == Fraction(1, 3)
    assert QQ.inv(Fraction(-2, 5)) == Fraction(-5, 2)
    with pytest.raises(ZeroInversion):
        QQ.inv(0)


def dict_echelon_insert(pivots, row, p):
    """Reference for PackedEchelon.insert on {column: residue} rows: the
    highest column leads, pivot rows are monic, every entry reduced."""
    while row:
        k = max(row)
        c = row[k]
        piv = pivots.get(k)
        if piv is None:
            inv = pow(c, -1, p)
            pivots[k] = {j: v * inv % p for j, v in row.items()}
            return k
        for j, v in piv.items():
            x = (row.get(j, 0) - c * v) % p
            if x:
                row[j] = x
            else:
                row.pop(j, None)
    return None


@pytest.mark.parametrize("p", (5, 32771, 1073741789, 2 ** 62 - 57))
def test_packed_echelon_long_chains_match_dict_echelon(p):
    # 2^62 - 57 is the largest prime PrimeField accepts: the widest slots.
    # Pivots lead at every column from 3 up; dense rows with residues
    # near p then take a pivot step at almost every column on the way
    # down, the case the slot width is sized for.
    assert prime_field(p).p == p
    rng = random.Random(49)
    n = 150
    ech, ref = PackedEchelon(p, n), {}
    assert ech.width >= 2 * p.bit_length() + n.bit_length() + 2

    def big():
        return p - 1 - rng.randrange(min(p - 1, 1 << 20))

    def insert(row):
        k = ech.insert(ech.pack(row.items()))
        assert k == dict_echelon_insert(ref, dict(row), p)
        return k

    for k in range(n - 1, 2, -1):
        assert insert({j: big() for j in range(k + 1)}) == k
    leads = []
    for _ in range(4):
        leads.append(insert({j: big() for j in range(n)}))
    assert leads == [2, 1, 0, None]
    # a combination of stored rows reduces to zero through the whole chain
    combo = {}
    for k in (n - 1, n // 2, 2):
        f = big()
        combo[k] = (combo.get(k, 0) + f) % p
        for j, c in ech.entries(ech.pivots[k]):
            combo[j] = (combo.get(j, 0) + f * c) % p
    assert insert({j: c for j, c in combo.items() if c}) is None
    for k, piv in ref.items():
        assert dict(ech.entries(ech.pivots[k])) | {k: 1} == piv


@pytest.mark.parametrize("p", (2, 251, 32771, 1073741789, 2 ** 62 - 57))
def test_slots_and_entries_match_a_per_slot_decode(p):
    # one prime per item code (B, H, I, Q); the column count sets the
    # slot width and so q, the items per slot; slots near 2^width are as
    # unreduced as a row in the echelon gets
    rng = random.Random(p)
    qs = set()
    for ncols in (1, 2, 9, 300, 70000, 1 << 24):
        ech = PackedEchelon(p, ncols)
        assert ech.nbytes == ech.q * array(ech.code).itemsize
        qs.add(ech.q)
        w = ech.width
        top = (1 << w) - 1
        for _ in range(20):
            n = rng.randrange(1, 30)
            vals = [rng.choice((0, p, p * rng.randrange(1 << w - p.bit_length()),
                                top - rng.randrange(min(top, 1 << 12)),
                                rng.randrange(top)))
                    for _ in range(n)]
            row = sum(v << k * w for k, v in enumerate(vals))
            ref = [(row >> k * w) % (1 << w) % p
                   for k in range(-(-row.bit_length() // w))]
            assert ech.slots(row) == ref
            assert ech.entries(row) == [(k, c) for k, c in enumerate(ref) if c]
    assert len(qs) > 1 and (p != 2 or 1 in qs)
