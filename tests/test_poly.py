import random
from fractions import Fraction

import pytest

from satura.arith import QQ, prime_field
from satura.poly import (GREVLEX, LEX, ParseError, PolyRing, RingMismatch,
                         UnknownVariable, mono_degree, mono_divides, mono_lcm,
                         monomials_up_to_degree, order_compare,
                         order_from_name, polys_from_json, polys_to_json)


def ring_q(*names):
    return PolyRing(names, QQ)


def random_poly(ring, rng, max_deg=4, nterms=5):
    n = ring.nvars
    terms = []
    for _ in range(rng.randrange(nterms + 1)):
        m = tuple(rng.randrange(max_deg + 1) for _ in range(n))
        terms.append((m, Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
    return ring.poly(terms)


def test_order_comparisons():
    # grevlex on two vars: x^2 > xy > y^2 > x > y > 1
    chain = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
    for a, b in zip(chain, chain[1:]):
        assert order_compare(a, b, GREVLEX) > 0
        assert order_compare(b, a, GREVLEX) < 0
    # lex ignores degree: x > y^5
    assert order_compare((1, 0), (0, 5), LEX) > 0
    assert order_compare((1, 1), (1, 1), LEX) == 0
    # grevlex tie break: smaller exponent in the last variable wins
    assert order_compare((0, 2, 0), (1, 0, 1), GREVLEX) > 0
    assert order_from_name("grevlex") is GREVLEX
    assert order_from_name("lex") is LEX
    with pytest.raises(ValueError):
        order_from_name("degrevlex")


def test_monomial_helpers():
    assert mono_divides((1, 0, 2), (2, 0, 2))
    assert not mono_divides((1, 1, 0), (2, 0, 2))
    assert mono_lcm((1, 3), (2, 1)) == (2, 3)
    assert mono_degree((2, 0, 5)) == 7


def test_ring_arithmetic_identities():
    rng = random.Random(11)
    R = ring_q("x", "y", "z")
    for _ in range(60):
        f, g, h = (random_poly(R, rng) for _ in range(3))
        assert (f + g) - g == f
        assert f + g == g + f
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        assert f + R.zero() == f
        assert f * R.one() == f
        assert f - f == R.zero()
    x, y, _ = R.gens()
    assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2


def test_mod_p_arithmetic():
    R = PolyRing(("x", "y"), prime_field(7))
    f = R.parse("3*x^2 + 5*y")
    g = R.parse("4*x^2 + 2*y + 6")
    assert f + g == R.parse("6")
    assert (f * g).evaluate((2, 3)) == R.field.mul(f.evaluate((2, 3)),
                                                   g.evaluate((2, 3)))


def test_parse_print_round_trip():
    rng = random.Random(12)
    R = ring_q("x1", "x2", "x3")
    for _ in range(100):
        f = random_poly(R, rng)
        assert R.parse(str(f)) == f
    assert str(R.zero()) == "0"
    assert R.parse("x1*(x2 + 2)^2 - 1/3") == \
        R.parse("x1*x2^2 + 4*x1*x2 + 4*x1 - 1/3")


def test_parse_errors():
    R = ring_q("x", "y")
    with pytest.raises(UnknownVariable):
        R.parse("x + w")
    with pytest.raises(ParseError):
        R.parse("x + ")
    with pytest.raises(ParseError):
        R.parse("x ^ y")


def test_json_round_trip():
    rng = random.Random(13)
    base = PolyRing(("u", "v"), QQ)
    for field in (QQ, prime_field(32003)):
        R = base.with_field(field)
        polys = [R.coerce(random_poly(base, rng)) for _ in range(5)]
        ring2, polys2 = polys_from_json(polys_to_json(polys, R))
        assert ring2 == R
        assert polys2 == polys


def test_coerce_and_with_field():
    R = ring_q("x", "y")
    Rp = R.with_field(prime_field(5))
    f = R.parse("1/2*x + 7*y")
    g = Rp.coerce(f)
    assert g == Rp.parse("3*x + 2*y")
    assert R.with_order(LEX).order is LEX
    assert R.extend("T").nvars == 3
    with pytest.raises(RingMismatch):
        f + Rp.parse("x")


def test_substitute_and_evaluate():
    R = ring_q("x", "y")
    f = R.parse("x^2*y - 3*x + 1")
    assert f.evaluate((Fraction(2), Fraction(-1))) == Fraction(-9)
    S = ring_q("t")
    t = S.var("t")
    g = f.substitute([t + 1, t])
    assert g == S.parse("t^3 + 2*t^2 - 2*t - 2")


def test_permute_vars_involution():
    rng = random.Random(14)
    R = ring_q("a", "b", "c", "d")
    sigma = [2, 3, 0, 1]
    for _ in range(30):
        f = random_poly(R, rng)
        assert f.permute_vars(sigma).permute_vars(sigma) == f
    a, b, c, d = R.gens()
    assert (a * b ** 2).permute_vars(sigma) == c * d ** 2


def test_monomials_up_to_degree():
    ms = monomials_up_to_degree(2, 2)
    assert len(ms) == 6
    assert ms[-1] == (0, 0)
    assert sorted(ms, key=GREVLEX.key, reverse=True) == ms
    assert len(monomials_up_to_degree(3, 4)) == 35


def test_leading_data():
    R = PolyRing(("x", "y"), QQ, LEX)
    f = R.parse("y^5 + x")
    assert f.lm() == (1, 0)
    g = R.with_order(GREVLEX).coerce(f)
    assert g.lm() == (0, 5)
    assert g.monic().lc() == Fraction(1)


FIELDS = (prime_field(5), prime_field(32771), prime_field((1 << 61) - 1), QQ)


def ref_canonical(ring, d):
    """Reference canonical terms of a dict monomial -> raw coefficient."""
    p = ring.field.p
    out = {}
    for m, c in d.items():
        c = Fraction(c)
        if p is not None:
            c = c.numerator * pow(c.denominator, -1, p) % p
        if c:
            out[m] = c
    return tuple(sorted(out.items(), key=lambda t: ring.key(t[0]), reverse=True))


def ref_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return out


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return out


def raw_terms(rng, n, p):
    """Random terms with repeated monomials and non-canonical coefficients:
    ints outside [0, p), negatives and Fractions."""
    terms = []
    for _ in range(rng.randrange(7)):
        m = tuple(rng.randrange(3) for _ in range(n))
        if rng.random() < 0.5:
            c = rng.randint(-3 * (p or 9), 3 * (p or 9))
        else:
            c = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4)))
        terms.append((m, c))
    return terms


def sum_terms(terms):
    out = {}
    for m, c in terms:
        out[m] = out.get(m, 0) + c
    return out


def assert_canonical(f):
    p = f.ring.field.p
    for _, c in f.terms:
        if p is None:
            assert type(c) is Fraction and c
        else:
            assert type(c) is int and 0 < c < p
    ms = [m for m, _ in f.terms]
    assert ms == sorted(set(ms), key=f.ring.key, reverse=True)


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("field", FIELDS, ids=lambda F: F.descriptor)
def test_arithmetic_matches_dict_reference(field, order):
    rng = random.Random(21)
    R = PolyRing(("x", "y", "z"), field, order)
    RQ = PolyRing(("x", "y"), QQ, order)
    p = field.p

    def check(f, d):
        assert_canonical(f)
        assert f.terms == ref_canonical(R, d)

    for _ in range(40):
        f, g = (R.poly(ref_canonical(R, sum_terms(raw_terms(rng, 3, p))))
                for _ in range(2))
        da, db = dict(f.terms), dict(g.terms)
        c = rng.choice((0, 1, -1, rng.randint(-10 ** 20, 10 ** 20),
                        Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))))
        check(f + g, ref_add(da, db))
        check(f - g, ref_add(da, db, -1))
        check(f * g, ref_mul(da, db))
        check(f ** 3, ref_mul(ref_mul(da, da), da))
        check(f ** 0, {(0, 0, 0): 1})
        check(-f, {m: -a for m, a in da.items()})
        check(f.scale(c), {m: c * a for m, a in da.items()})
        check(c * f, {m: c * a for m, a in da.items()})
        check(f + c, ref_add(da, {(0, 0, 0): c}))
        check(c - f, ref_add({(0, 0, 0): c}, da, -1))
        check(R.const(c), {(0, 0, 0): c})
        if da:
            lc = f.terms[0][1]
            inv = Fraction(1, lc) if p is None else pow(lc, -1, p)
            check(f.monic(), {m: inv * a for m, a in da.items()})
        else:
            assert f.monic() == f
        h = RQ.poly(ref_canonical(RQ, sum_terms(raw_terms(rng, 2, None))))
        check(R.coerce(h), {m + (0,): a for m, a in h.terms})


@pytest.mark.parametrize("field", FIELDS, ids=lambda F: F.descriptor)
def test_poly_canonicalises_raw_terms(field):
    rng = random.Random(23)
    R = PolyRing(("x", "y", "z"), field)
    for _ in range(100):
        terms = raw_terms(rng, 3, field.p)
        f = R.poly(terms)
        assert_canonical(f)
        assert f.terms == ref_canonical(R, sum_terms(terms))


@pytest.mark.parametrize("field", FIELDS, ids=lambda F: F.descriptor)
def test_combine_equals_sum_of_products(field):
    rng = random.Random(22)
    R = PolyRing(("x", "y"), field)
    for _ in range(30):
        fs = [R.poly(raw_terms(rng, 2, field.p)) for _ in range(rng.randrange(5))]
        cs = [rng.choice((0, -1, rng.randint(-99, 99),
                          Fraction(rng.randint(-9, 9), rng.choice((1, 3)))))
              for _ in fs]
        got = R.combine(cs, fs)
        assert_canonical(got)
        assert got == sum((c * f for c, f in zip(cs, fs)), R.zero())
    with pytest.raises(RingMismatch):
        R.combine([1], [R.with_order(LEX).one()])


def test_poly_reduces_coefficients_mod_p():
    R = PolyRing(("x",), prime_field(7))
    f = R.poly([((1,), 7)])
    assert f.is_zero() and f.degree() == -1
    assert R.poly([((1,), -3)]) == R.parse("4*x")
    assert R.poly({(1,): Fraction(1, 2)}) == R.parse("4*x")
    assert R.monomial((2,), 9) == R.parse("2*x^2")


def test_poly_rejects_non_exact_coefficients():
    R = ring_q("x")
    for bad in (0.5, "1", None):
        with pytest.raises(TypeError):
            R.poly([((1,), bad)])
    with pytest.raises(TypeError):
        R.poly([((1,), Fraction(1)), ((1,), 0.5)])
    with pytest.raises(TypeError):
        R.parse("x").scale(0.5)
    with pytest.raises(TypeError):
        R.combine([0.5], [R.parse("x")])


def test_int_coefficients_over_q_become_fractions():
    R = ring_q("x")
    f = R.poly([((1,), 3), ((0,), 1)])
    assert all(type(c) is Fraction for _, c in f.terms)
    m = f.monic()
    assert m.terms == (((1,), Fraction(1)), ((0,), Fraction(1, 3)))
    assert str(m) == "x + 1/3"
