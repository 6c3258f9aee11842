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


def test_integer_coefficients_over_q_stay_exact():
    # Python int coefficients over Q; the results must be exact
    # rationals, never floats
    R = PolyRing(("x",), QQ)
    x2 = R.poly([((2,), 1)])
    g = R.poly([((1,), 3), ((0,), 1)])  # 3x + 1
    r = normal_form(x2, [g])
    assert r.terms == (((0,), Fraction(1, 9)),)
    s = s_polynomial(g, x2)  # x/3 * (3x + 1) - x^2
    assert s.terms == (((1,), Fraction(1, 3)),)
    for p in (r, s):
        assert all(isinstance(c, Fraction) for _, c in p.terms)


def test_multiple_of_p_coefficient_is_zero_mod_p():
    # 7x over F_7 is the zero polynomial, not a generator with lead 7
    R = PolyRing(("x",), prime_field(7))
    gb = buchberger([R.poly([((1,), 7)]), R.parse("x^2+1")])
    assert list(gb) == [R.parse("x^2 + 1")]


def test_packed_exponent_overflow_raises():
    # exponents are packed 15 bits wide plus a guard bit; products formed
    # while reducing must not wrap into a wrong monomial
    for field in (prime_field(32003), QQ):
        R = PolyRing(("x", "y"), field, LEX)
        with pytest.raises(OverflowError):  # x*y^40000 on the way
            normal_form(R.parse("x^3"), [R.parse("x - y^20000")])
        with pytest.raises(OverflowError):  # tail y^30000 * y^5000
            s_polynomial(R.parse("x - y^30000"), R.parse("x*y^5000 + 1"))
        G = PolyRing(("x", "y"), field, GREVLEX)
        with pytest.raises(OverflowError):  # y^20000 * y^20000
            normal_form(G.parse("x^20000*y^20000"),
                        [G.parse("x^20000 + y^20000")])
        # in range: reduction runs up to the largest packable exponent
        assert normal_form(R.parse("x^2"), [R.parse("x - y^16383")]) \
            == R.parse("y^32766")


def textbook_reduced_basis(gens):
    """Reduced Groebner basis by plain Buchberger in Polynomial arithmetic:
    every S-pair, no criteria, then minimalisation and tail reduction."""
    basis = [g for g in gens if not g.is_zero()]
    ring = basis[0].ring
    todo = [(i, j) for i in range(len(basis)) for j in range(i)]
    while todo:
        i, j = todo.pop()
        h = textbook_normal_form(textbook_s_polynomial(basis[i], basis[j]),
                                 basis)
        if not h.is_zero():
            todo += [(len(basis), k) for k in range(len(basis))]
            basis.append(h)
    minimal = []
    for g in sorted(basis, key=lambda g: ring.key(g.lm())):
        if not any(mono_divides(h.lm(), g.lm()) for h in minimal):
            minimal.append(g)
    reduced = []
    for g in minimal:
        r = textbook_normal_form(g, [h for h in minimal if h is not g])
        reduced.append(r.scale(ring.field.inv(r.lc())))
    return reduced


def as_fractions(f):
    """f with Fraction coefficients: QQ.div on Python ints gives floats,
    so the textbook references get Fractions."""
    return f.ring.poly([(m, Fraction(c)) for m, c in f.terms])


def random_q_system(ring, rng, count, max_deg, fractional):
    """Random generators whose terms share a non-unit factor, so they are
    neither monic nor primitive: Python int coefficients (as
    PolyRing.poly keeps them), or Fractions with denominators."""
    out = []
    for _ in range(count):
        if fractional:
            scale = Fraction(rng.choice((-6, -2, 3, 10)), rng.choice((4, 9)))
        else:
            scale = rng.choice((-6, -2, 3, 10))
        terms = []
        for _ in range(rng.randrange(2, 6)):
            m = tuple(rng.randrange(max_deg + 1) for _ in range(ring.nvars))
            c = rng.randint(-7, 7)
            terms.append((m, scale * (Fraction(c, rng.randint(1, 6))
                                      if fractional else c)))
        f = ring.poly(terms)
        if not f.is_zero():
            out.append(f)
    return out


@pytest.mark.parametrize("order", (GREVLEX, LEX), ids=lambda o: o.name)
def test_rational_bases_match_textbook_buchberger(order):
    rng = random.Random(43)
    R = PolyRing(("x", "y"), QQ, order)
    checked = 0
    for t in range(24):
        gens = random_q_system(R, rng, 2, 3, fractional=t % 2 == 1)
        if len(gens) < 2:
            continue
        gb = buchberger(gens)
        assert set(gb) == set(textbook_reduced_basis(list(map(as_fractions,
                                                              gens))))
        assert all(isinstance(c, Fraction) for g in gb for _, c in g.terms)
        checked += 1
    assert checked >= 15


def test_rational_reducers_not_monic_or_primitive():
    # normal forms and S-polynomials against reducers with content,
    # denominators and negative leads, over integer and fractional inputs
    rng = random.Random(44)
    for order, names in ((GREVLEX, ("x", "y", "z")), (LEX, ("x", "y"))):
        R = PolyRing(names, QQ, order)
        for t in range(16):
            divisors = random_q_system(R, rng, 3, 3, fractional=t % 2 == 1)
            if len(divisors) < 2:
                continue
            f = random_q_system(R, rng, 1, 4, fractional=t % 4 < 2)
            f = f[0] if f else R.zero()
            r = normal_form(f, divisors)
            exact = list(map(as_fractions, divisors))
            assert r == textbook_normal_form(as_fractions(f), exact)
            s = s_polynomial(divisors[0], divisors[1])
            assert s == textbook_s_polynomial(exact[0], exact[1])
            for p in (r, s):
                assert all(isinstance(c, Fraction) for _, c in p.terms)


def textbook_is_groebner(polys):
    return all(textbook_normal_form(textbook_s_polynomial(f, g),
                                    polys).is_zero()
               for a, f in enumerate(polys) for g in polys[a + 1:])


def test_verify_groebner_over_q_matches_textbook():
    rng = random.Random(45)
    verdicts = set()
    for order in (GREVLEX, LEX):
        R = PolyRing(("x", "y"), QQ, order)
        for t in range(12):
            # one generator is always a basis; two or three rarely are
            gens = random_q_system(R, rng, 1 + t % 3, 2,
                                   fractional=t % 2 == 1)
            if not gens:
                continue
            verdict = verify_groebner(gens)
            assert verdict == textbook_is_groebner(list(map(as_fractions,
                                                            gens)))
            verdicts.add(verdict)
            gb = list(buchberger(gens))
            # rescaled members are still a basis of the same ideal
            scaled = [g.scale(Fraction(rng.choice((-4, 6)), 7)) for g in gb]
            assert verify_groebner(scaled, gens)
            if gb[0].degree() == 0:
                continue
            # a reduced basis without one member misses part of the ideal
            assert not verify_groebner(gb[1:], gens)
            verdicts.add(False)
    assert verdicts == {True, False}


def test_shuffle_and_scaling_invariance_over_q():
    rng = random.Random(46)
    for order in (GREVLEX, LEX):
        R = PolyRing(("x", "y"), QQ, order)
        for t in range(10):
            gens = random_q_system(R, rng, 3, 3, fractional=t % 2 == 1)
            if not gens:
                continue
            gb = buchberger(gens)
            for _ in range(3):
                shuffled = [g.scale(Fraction(rng.randint(1, 9),
                                             rng.randint(-5, -1)))
                            for g in gens]
                rng.shuffle(shuffled)
                assert buchberger(shuffled) == gb
