import random
from fractions import Fraction

import pytest

from satura.arith import QQ, prime_field
from satura.groebner import (NotZeroDimensional, buchberger, ideal_degree,
                             is_zero_dimensional, normal_form, quotient_basis,
                             s_polynomial, verify_groebner)
from satura.poly import GREVLEX, LEX, PolyRing, mono_div, mono_divides, mono_lcm

# F_5, word-size primes at 15 and 30 bits, the Mersenne prime 2^61 - 1
# (products near 2^122 in the delayed normal form) and Q
KERNEL_FIELDS = (prime_field(5), prime_field(32771), prime_field(1073741789),
                 prime_field(2 ** 61 - 1), QQ)


def random_system(ring, rng, count=3, max_deg=3):
    out = []
    for _ in range(count):
        terms = []
        for _ in range(rng.randrange(1, 5)):
            m = tuple(rng.randrange(max_deg + 1) for _ in range(ring.nvars))
            terms.append((m, Fraction(rng.randint(-5, 5))))
        f = ring.poly(terms)
        if not f.is_zero():
            out.append(f)
    return out


def test_textbook_basis():
    # <x^2+y, xy-1>: reduced grevlex basis is {x^2+y, xy-1, y^2+x}
    R = PolyRing(("x", "y"), QQ)
    gb = buchberger([R.parse("x^2 + y"), R.parse("x*y - 1")])
    assert set(map(str, gb)) == {"x^2 + y", "x*y - 1", "y^2 + x"}
    assert verify_groebner(gb)
    assert ideal_degree(gb) == 3


def test_katsura2_lex():
    R = PolyRing(("u0", "u1"), QQ, LEX)
    gb = buchberger([R.parse("u0 + 2*u1 - 1"),
                     R.parse("u0^2 + 2*u1^2 - u0")])
    assert set(gb.leading_monomials) == {(1, 0), (0, 2)}
    assert verify_groebner(gb, [R.parse("u0 + 2*u1 - 1")])


def test_unit_ideal():
    R = PolyRing(("x", "y"), prime_field(13))
    gb = buchberger([R.parse("x + 1"), R.parse("x + 2")])
    assert gb.is_unit
    assert len(gb) == 1 and str(gb.generators[0]) == "1"
    assert ideal_degree(gb) == 0
    assert quotient_basis(gb) == []


def test_zero_input():
    R = PolyRing(("x",), QQ)
    gb = buchberger([R.zero()])
    assert len(gb) == 0
    assert not is_zero_dimensional(gb)


def test_shuffle_gives_identical_basis():
    rng = random.Random(21)
    R = PolyRing(("x", "y", "z"), prime_field(32003))
    base = PolyRing(("x", "y", "z"), QQ)
    for _ in range(25):
        gens = [R.coerce(f) for f in random_system(base, rng)]
        if not gens:
            continue
        gb = buchberger(gens)
        for _ in range(3):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert buchberger(shuffled) == gb
        assert verify_groebner(gb, gens)


def test_reduced_shape():
    # No leading monomial of the reduced basis divides a monomial of
    # another member, and every generator is monic.
    rng = random.Random(22)
    R = PolyRing(("x", "y"), QQ)
    for _ in range(25):
        gens = random_system(R, rng)
        gb = buchberger(gens)
        lms = gb.leading_monomials
        for i, g in enumerate(gb):
            assert g.lc() == Fraction(1)
            for j, lm in enumerate(lms):
                if i == j:
                    continue
                for m, _ in g.terms:
                    assert not all(a <= b for a, b in zip(lm, m))


def test_normal_form_membership():
    R = PolyRing(("x", "y"), QQ)
    f1, f2 = R.parse("x^2 + y"), R.parse("x*y - 1")
    gb = buchberger([f1, f2])
    rng = random.Random(23)
    for _ in range(20):
        a, b = (random_system(R, rng, count=1) or [R.one()] for _ in range(2))
        combo = a[0] * f1 + b[0] * f2
        assert gb.contains(combo)
        r = normal_form(combo + R.parse("x"), gb)
        assert r == normal_form(R.parse("x"), gb)
    assert not gb.contains(R.one())


def test_spoly_reduces_to_zero_on_basis():
    R = PolyRing(("x", "y", "z"), QQ)
    gb = buchberger([R.parse("x^2 - y*z"), R.parse("y^2 - x*z"),
                     R.parse("z^2 - x*y")])
    gens = list(gb)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            assert normal_form(s_polynomial(gens[i], gens[j]), gb).is_zero()


def test_quotient_basis_downward_closed():
    R = PolyRing(("x", "y"), prime_field(101))
    gb = buchberger([R.parse("x^3 + x + 1"), R.parse("y^2 + x*y + 2")])
    q = quotient_basis(gb)
    assert len(q) == 6 == ideal_degree(gb)
    qset = set(q)
    for m in q:
        for i, e in enumerate(m):
            if e:
                assert m[:i] + (e - 1,) + m[i + 1:] in qset


def test_positive_dimension_rejected():
    R = PolyRing(("x", "y"), QQ)
    gb = buchberger([R.parse("x*y - 1")])
    assert not is_zero_dimensional(gb)
    with pytest.raises(NotZeroDimensional):
        quotient_basis(gb)


def test_degree_order_invariance():
    rng = random.Random(24)
    R = PolyRing(("x", "y"), QQ)
    hits = 0
    for _ in range(40):
        gens = random_system(R, rng, count=3, max_deg=2)
        gb = buchberger(gens)
        if not is_zero_dimensional(gb) or gb.is_unit:
            continue
        hits += 1
        lex_gens = [R.with_order(LEX).coerce(f) for f in gens]
        assert ideal_degree(buchberger(lex_gens)) == ideal_degree(gb)
    assert hits >= 5  # the fuzz actually exercised the comparison


def test_verify_groebner_rejects():
    for field in (QQ, prime_field(7)):
        R = PolyRing(("x", "y"), field)
        gens = [R.parse("x^2 + y"), R.parse("x*y - 1")]
        # y^2 + x is missing, so an S-polynomial does not reduce to zero
        assert not verify_groebner(gens)
        gb = buchberger(gens)
        assert verify_groebner(gb, gens)
        assert not verify_groebner(gb, gens + [R.parse("x")])


def textbook_normal_form(f, divisors):
    """Full division with Polynomial arithmetic (field methods throughout):
    the largest remaining term goes to the first divisor whose leading
    monomial divides it, else to the remainder."""
    ring, field = f.ring, f.ring.field
    divisors = [g for g in divisors if not g.is_zero()]
    rem, rest = ring.zero(), f
    while not rest.is_zero():
        m, c = rest.lt()
        for g in divisors:
            if mono_divides(g.lm(), m):
                q = field.div(c, g.lc())
                rest = rest - ring.monomial(mono_div(m, g.lm()), q) * g
                break
        else:
            rem = rem + ring.monomial(m, c)
            rest = rest - ring.monomial(m, c)
    return rem


def textbook_s_polynomial(f, g):
    ring, field = f.ring, f.ring.field
    L = mono_lcm(f.lm(), g.lm())
    return (ring.monomial(mono_div(L, f.lm()), field.inv(f.lc())) * f
            - ring.monomial(mono_div(L, g.lm()), field.inv(g.lc())) * g)


def random_field_poly(ring, rng, terms=4, max_deg=3):
    field = ring.field
    out = []
    for _ in range(rng.randrange(1, terms + 1)):
        m = tuple(rng.randrange(max_deg + 1) for _ in range(ring.nvars))
        if field.p is None:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        else:
            c = rng.randrange(field.p)  # full-width residues
        out.append((m, c))
    return ring.poly(out)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.descriptor)
def test_kernel_matches_textbook_division(field):
    rng = random.Random(41)
    # lex bases of random trivariate cubics can take minutes; two variables
    for order, names in ((GREVLEX, ("x", "y", "z")), (LEX, ("x", "y"))):
        R = PolyRing(names, field, order)
        for _ in range(8):
            divisors = [random_field_poly(R, rng) for _ in range(3)]
            f = random_field_poly(R, rng, terms=6, max_deg=4)
            assert normal_form(f, divisors) == textbook_normal_form(f, divisors)
            g, h = [d for d in divisors if not d.is_zero()][:2]
            assert s_polynomial(g, h) == textbook_s_polynomial(g, h)
            gb = buchberger(divisors)
            for a, ga in enumerate(gb):
                assert ga.lc() == field.one
                for gc in list(gb)[a + 1:]:
                    spoly = textbook_s_polynomial(ga, gc)
                    assert textbook_normal_form(spoly, list(gb)).is_zero()
            for d in divisors:
                assert textbook_normal_form(d, list(gb)).is_zero()
