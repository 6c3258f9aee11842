import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from satura import groebner
from satura.arith import QQ, PackedEchelon, prime_field
from satura.groebner import (F4Trace, GroebnerBasis, NotZeroDimensional,
                             _Codec, buchberger, deadline, ideal_degree,
                             is_zero_dimensional, normal_form, quotient_basis,
                             s_polynomial, verify_groebner)
from satura.poly import GREVLEX, LEX, PolyRing, mono_divides, mono_lcm
from satura.problems import alt_system, conics_affine_system
from satura.saturate import compute_gi, split_seed

# F_5, word-size primes at 15 and 30 bits, the Mersenne prime 2^61 - 1
# (products near 2^122 in the delayed normal form), 2^62 - 57, the
# largest prime PrimeField accepts (the widest F4 row slots), and Q
KERNEL_FIELDS = (prime_field(5), prime_field(32771), prime_field(1073741789),
                 prime_field(2 ** 61 - 1), prime_field(2 ** 62 - 57), QQ)


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
    # the run's counters ride along outside equality and hashing
    assert gb.stats.spairs_reduced >= 1 and gb.stats.width == 8
    bare = GroebnerBasis(R, gb.generators)
    assert bare.stats is None and bare == gb and hash(bare) == hash(gb)


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


def mono_div(a, b):
    """a / b, for b dividing a."""
    return tuple(x - y for x, y in zip(a, b))


def textbook_normal_form(f, divisors):
    """Full division with Polynomial arithmetic (quotients through inv):
    the largest remaining term goes to the first divisor whose leading
    monomial divides it, else to the remainder."""
    ring, field = f.ring, f.ring.field
    divisors = [g for g in divisors if not g.is_zero()]
    rem, rest = ring.zero(), f
    while not rest.is_zero():
        m, c = rest.lt()
        for g in divisors:
            if mono_divides(g.lm(), m):
                q = c * field.inv(g.lc())
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


# systems with linear generators, in (x, y, z), with the number of
# generators buchberger sets aside as linear under grevlex and lex
LINEAR_CASES = (
    # independent linear forms beside nonlinear generators (under lex,
    # z^2 + x - 3 leads with x and makes the linear form nonlinear)
    (("x + 2*y - z + 1", "y^2 - x*z + 2", "z^2 + x - 3"), (1, 0)),
    # linear forms that autoreduction makes dependent
    (("x + y + z - 1", "x - y + 2*z", "2*x + 3*z - 1", "y*z + z^2 - 3"),
     (2, 2)),
    # all linear
    (("x + y - 2*z + 1", "y + z - 1", "x - z + 3"), (3, 3)),
    # an inconsistent linear system: the unit ideal
    (("x + y + z", "x + y + z + 1", "z^2 - y"), (0, 0)),
    # nonlinear generators whose difference autoreduction makes linear
    (("x*y + y - z", "x*y + 2*z - 1", "y^2 - x*z"), (1, 1)),
    # under lex, x + y^3 - 1 has a degree-1 leading term but is not linear
    (("x + y^3 - 1", "y^2 + z - 2", "z^2 - y*z + 2"), (0, 0)),
)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.descriptor)
def test_kernel_matches_textbook_division(field):
    rng = random.Random(41)
    # lex bases of random trivariate cubics can take minutes; two variables
    for order, names in ((GREVLEX, ("x", "y", "z")), (LEX, ("x", "y"))):
        R = PolyRing(names, field, order)
        R3 = PolyRing(("x", "y", "z"), field, order)
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
        for case, set_aside in LINEAR_CASES:
            gens = [R3.parse(t) for t in case]
            gb = buchberger(gens)
            assert set(gb) == set(textbook_reduced_basis(gens))
            assert gb.stats.linear_set_aside == set_aside[order is LEX]


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


@pytest.mark.parametrize("width", (8, 16))
@pytest.mark.parametrize("order", (GREVLEX, LEX), ids=lambda o: o.name)
def test_codec_layout(order, width):
    # the packed int realises the ring order, and sign/guards test divisibility
    R = PolyRing(("w", "x", "y", "z"), QQ, order)
    codec = _Codec(R.nvars, order.name, width)
    cap, rng = codec.cap, random.Random(width)
    exps = (0, 1, 2, 3, cap - 1, cap)
    monos = [tuple(rng.choice(exps) for _ in range(R.nvars)) for _ in range(60)]
    monos += [(0,) * R.nvars, (cap,) * R.nvars]
    packed = [codec.pack(m) for m in monos]
    for a, pa in zip(monos, packed):
        assert codec.unpack(pa) == a
        for b, pb in zip(monos, packed):
            assert (pa < pb) == (R.key(a) < R.key(b))
            assert (pa == pb) == (a == b)
            divides = not (codec.sign * (pa - pb) & codec.guards)
            assert divides == mono_divides(a, b)
    assert codec.one == codec.pack((0,) * R.nvars)
    with pytest.raises(OverflowError):
        codec.pack((0, cap + 1, 0, 0))


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
        # buchberger packs 8-bit fields first and reruns with 16 bits:
        # an input exponent above 127, then a remainder above 127
        for gens in (["x^200 + y", "y^2 - 1"], ["x - y^100", "x^2 - y"]):
            gens = [R.parse(t) for t in gens]
            gb = buchberger(gens)
            assert gb.stats.width == 16
            assert set(gb) == set(textbook_reduced_basis(gens))
        with pytest.raises(OverflowError):  # y^20000 * y^20000
            buchberger([R.parse("x - y^20000"), R.parse("x^2 - y")])


def textbook_reduced_basis(gens, coprime=False):
    """Reduced Groebner basis by plain Buchberger in Polynomial arithmetic:
    every S-pair, no criteria, then minimalisation and tail reduction.
    With coprime=True, pairs go by lowest lcm degree and pairs with
    coprime leading monomials are skipped (Buchberger's first criterion),
    which keeps three-variable inputs fast."""
    basis = [g for g in gens if not g.is_zero()]
    ring = basis[0].ring
    todo = [(i, j) for i in range(len(basis)) for j in range(i)]

    def lcm_degree(ij):
        return sum(mono_lcm(basis[ij[0]].lm(), basis[ij[1]].lm()))

    while todo:
        if coprime:
            todo.sort(key=lcm_degree, reverse=True)
        i, j = todo.pop()
        if coprime and lcm_degree((i, j)) == basis[i].degree() + basis[j].degree():
            continue
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


def random_linear_form(ring, rng):
    n = ring.nvars
    terms = [(tuple(int(k == j) for k in range(n)),
              Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
             for j in range(n)]
    return ring.poly(terms + [((0,) * n, Fraction(rng.randint(-4, 4)))])


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
        assert set(gb) == set(textbook_reduced_basis(gens))
        assert all(isinstance(c, Fraction) for g in gb for _, c in g.terms)
        checked += 1
    assert checked >= 15
    # one or two random linear forms beside multilinear generators
    R3 = PolyRing(("x", "y", "z"), QQ, order)
    set_aside = set()
    for t in range(12):
        gens = [random_linear_form(R3, rng) for _ in range(1 + t % 2)]
        gens += random_q_system(R3, rng, 2, 1, fractional=t % 2 == 1)
        gb = buchberger(gens)
        assert set(gb) == set(textbook_reduced_basis(gens))
        set_aside.add(gb.stats.linear_set_aside)
    assert {1, 2} <= set_aside


@pytest.mark.parametrize("p", (5, 32003, 2 ** 61 - 1, 2 ** 62 - 57))
@pytest.mark.parametrize("order", (GREVLEX, LEX), ids=lambda o: o.name)
def test_f4_bases_match_textbook_buchberger(p, order):
    # over F_p buchberger reduces each degree's S-pairs in one packed
    # matrix; the reduced basis is unique, so it must equal plain
    # Buchberger's on random ideals with full-width residues
    rng = random.Random(p % 1000 + (order is LEX))
    F = prime_field(p)
    # trivariate quadrics under grevlex, bivariate cubics under lex
    names, max_deg = (("x", "y"), 3) if order is LEX else (("x", "y", "z"), 2)
    R = PolyRing(names, F, order)
    matrices = 0
    for _ in range(12):
        gens = [g for g in (random_field_poly(R, rng, max_deg=max_deg)
                            for _ in range(3)) if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        assert set(gb) == set(textbook_reduced_basis(gens, coprime=True))
        matrices += gb.stats.matrices
    assert matrices > 0



def s_row_shape(rf, rg, L, reducers, index):
    """How `_f4_matrix` builds the S-row of the pair (rf, rg) at lcm L:
    from g's half when the reducer row of L's column is f's ("f"), from
    f's half when it is g's ("g"), else from both tails ("neither")."""
    r = {k: rec for k, rec, _ in reducers}.get(index.get(L))
    return "f" if r is rf else "g" if r is rg else "neither"


@pytest.mark.parametrize("p", (5, 32003, 2 ** 61 - 1))
def test_f4_s_rows_match_inserted_s_polynomials(p):
    # the leads and rows of _f4_matrix, which builds each S-row from the
    # pair's halves, against inserting each pair's S-polynomial, packed,
    # into an echelon with the same reducer rows; each lcm column takes
    # a random reducer among the records whose lead divides it (or is
    # left out), so all three shapes of S-row turn up
    rng = random.Random(p)
    R = PolyRing(("x", "y", "z"), prime_field(p))
    codec = groebner._codec(3, "grevlex", 8)
    guards = codec.guards
    leads = ((2, 1, 0), (1, 2, 0), (1, 1, 1), (0, 2, 1), (2, 0, 1))
    shapes = Counter()
    for _ in range(30):
        recs = []
        for lm in rng.sample(leads, 4):  # tails of degree <= 2 stay below
            tail = [(tuple(rng.randrange(3) for _ in range(3)), rng.randrange(p))
                    for _ in range(6)]
            recs.append(groebner._reducer(R.poly([(lm, 1)] + [
                t for t in tail if sum(t[0]) <= 2]), codec, p))
        spairs = [(rf, rg, codec.pack(mono_lcm(codec.unpack(rf[0]),
                                                codec.unpack(rg[0]))))
                  for a, rf in enumerate(recs) for rg in recs[a + 1:]]
        start = {tm + L - lead for rf, rg, L in spairs
                 for lead, _, tail in (rf, rg) for tm, _ in tail}
        start.update(L for _, _, L in spairs if rng.random() < 0.8)
        choice = {}

        def find(m):
            if m not in choice:
                e = codec.unpack(m)
                hits = [r for r in recs if mono_divides(codec.unpack(r[0]), e)]
                choice[m] = rng.choice(hits) if hits else None
            return choice[m]

        cols, index, reducers = groebner._preprocess(start, find, guards)
        got = groebner._f4_matrix(spairs, cols, index, reducers, p,
                                  groebner.GroebnerStats(), guards)
        ech = PackedEchelon(p, len(cols))
        for k, (_, _, tail), shift in reducers:
            ech.pivots[k] = ech.pack(tail, index, shift)
        want = []
        for rf, rg, L in spairs:
            shapes[s_row_shape(rf, rg, L, reducers, index)] += 1
            s, _ = groebner._spoly_packed(rf, rg, L, p, guards)
            k = ech.insert(ech.pack([(index[m], c % p)
                                     for m, c in s.items() if c % p]))
            if k is not None:
                want.append(k)
        want.sort(reverse=True)
        assert got == (want, [{cols[j]: c for j, c in ech.entries(ech.pivots[k])}
                              | {cols[k]: 1} for k in want])
    assert shapes["f"] and shapes["g"] and shapes["neither"]


@pytest.mark.parametrize("p", (5, 32003, 2 ** 61 - 1))
def test_f4_bases_from_s_row_halves_verify(p, monkeypatch):
    shapes, f4_matrix = Counter(), groebner._f4_matrix

    def spy(spairs, cols, index, reducers, *rest):
        for rf, rg, L in spairs:
            shapes[s_row_shape(rf, rg, L, reducers, index)] += 1
        return f4_matrix(spairs, cols, index, reducers, *rest)
    monkeypatch.setattr(groebner, "_f4_matrix", spy)
    rng = random.Random(p + 1)
    R = PolyRing(("x", "y", "z"), prime_field(p))
    for _ in range(12):
        gens = [g for g in (random_field_poly(R, rng, max_deg=2)
                            for _ in range(3)) if not g.is_zero()]
        if gens:
            assert verify_groebner(buchberger(gens), gens)
    assert shapes["f"] and shapes["g"] and shapes["neither"], shapes

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
            assert r == textbook_normal_form(f, divisors)
            s = s_polynomial(divisors[0], divisors[1])
            assert s == textbook_s_polynomial(divisors[0], divisors[1])
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
            assert verdict == textbook_is_groebner(gens)
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


@pytest.mark.parametrize("field", (prime_field(32003), QQ), ids=str)
def test_autoreduce_stops_once_leads_hold(field, monkeypatch):
    # rounds end after one in which no leading monomial moved and no
    # generator was dropped: a round that changes only tails is the last
    calls = []
    nf = groebner._nf_packed

    def counted(*args):
        calls.append(1)
        return nf(*args)

    monkeypatch.setattr(groebner, "_nf_packed", counted)
    R = PolyRing(("x", "y"), field)
    codec = groebner._codec_for(R)
    mod = field.p

    def autoreduce(texts):
        work = [groebner._to_packed(R.parse(t), codec) for t in texts]
        for d in work:
            groebner._normalize(d, mod)
        calls.clear()
        out = groebner._autoreduce(work, mod, codec)
        return {groebner._from_packed(d, codec, R).monic() for d in out}

    # only the tail of x^2 + y^2 changes: one round of two reductions
    assert autoreduce(["x^2 + y^2", "y^2 - 1"]) == {R.parse("x^2 + 1"),
                                                    R.parse("y^2 - 1")}
    assert len(calls) == 2
    # x*y - 1 reduces to a new lead y^2 + 1: a second round confirms
    gens = [R.parse("x*y - 1"), R.parse("x*y + y^2")]
    assert autoreduce(map(str, gens)) == {R.parse("x*y - 1"),
                                          R.parse("y^2 + 1")}
    assert len(calls) == 4
    assert set(buchberger(gens)) == set(textbook_reduced_basis(gens))


# hand cases with linear inputs, in (x, y, z): the reduced basis and the
# number of generators set aside, the same under grevlex and lex
LINEAR_HAND_CASES = (
    # dependent linear inputs: the second reduces to zero
    (("x + y - z", "2*x + 2*y - 2*z", "y^2 - z"),
     ("x + y - z", "y^2 - z"), 1),
    # inconsistent linear inputs: the unit ideal
    (("x + y", "x + y + 1", "z^2 - x"), ("1",), 0),
    # x^2 - y^2 + z turns linear once x = y is put in
    (("x - y", "x^2 - y^2 + z"), ("x - y", "z"), 2),
    # x^2 - y^2 vanishes once x = y is put in
    (("x - y", "x^2 - y^2"), ("x - y",), 1),
)


@pytest.mark.parametrize("field", (prime_field(5), prime_field(32003),
                                   prime_field(2 ** 61 - 1), QQ),
                         ids=lambda f: f.descriptor)
@pytest.mark.parametrize("order", (GREVLEX, LEX), ids=lambda o: o.name)
def test_linear_inputs_substituted(field, order):
    R = PolyRing(("x", "y", "z"), field, order)
    for case, expected, set_aside in LINEAR_HAND_CASES:
        gens = [R.parse(t) for t in case]
        gb = buchberger(gens)
        assert set(gb) == {R.parse(t) for t in expected}
        assert set(gb) == set(textbook_reduced_basis(gens))
        assert gb.stats.linear_set_aside == set_aside


@pytest.mark.parametrize("p", (5, 32003, 2 ** 61 - 1))
@pytest.mark.parametrize("order", (GREVLEX, LEX), ids=lambda o: o.name)
def test_f4_bases_with_linear_inputs_match_textbook_buchberger(p, order):
    # one to three random linear forms beside nonlinear generators: the
    # linear ones are substituted before the main loop, which must not
    # change the reduced basis
    rng = random.Random(p % 1000 + 2 * (order is LEX))
    F = prime_field(p)
    R = PolyRing(("x", "y", "z"), F, order)
    set_aside = set()
    for t in range(12):
        gens = [random_linear_form(R, rng) for _ in range(1 + t % 3)]
        # two nonlinear generators beside one linear form, one beside more
        gens += [random_field_poly(R, rng, max_deg=2)
                 for _ in range(1 + (t % 3 == 0))]
        gens = [g for g in gens if not g.is_zero()]
        gb = buchberger(gens)
        assert set(gb) == set(textbook_reduced_basis(gens, coprime=True))
        st = gb.stats
        if not gb.is_unit:
            assert st.linear_set_aside + st.reduced_nvars == R.nvars
        set_aside.add(st.linear_set_aside)
    assert {1, 2} <= set_aside


@pytest.mark.parametrize("order", (GREVLEX, LEX), ids=lambda o: o.name)
def test_substitution_overflow_reruns_or_raises(order):
    # x = y turns x^100*y^100 into y^200: past the 8-bit fields, so
    # buchberger reruns with 16 bits; y^40000 is past those too
    for field in (prime_field(32003), QQ):
        R = PolyRing(("x", "y"), field, order)
        gens = [R.parse("x - y"), R.parse("x^100*y^100 + 1")]
        gb = buchberger(gens)
        assert gb.stats.width == 16
        assert set(gb) == {R.parse("x - y"), R.parse("y^200 + 1")}
        with pytest.raises(OverflowError):
            buchberger([R.parse("x - y"), R.parse("x^20000*y^20000 + 1")])


def assert_traced_run_is_full_f4(gens, trace):
    """buchberger with the trace gives full F4's basis and counts; only a
    replay's matrix rows and columns may differ, being the record's."""
    full, gb = buchberger(gens), buchberger(gens, trace)
    assert gb == full
    a = full.stats
    assert replace(gb.stats, matrix_rows=a.matrix_rows,
                   matrix_columns=a.matrix_columns) == a
    return gb


@pytest.mark.parametrize("order", (GREVLEX, LEX), ids=lambda o: o.name)
def test_trace_replays_match_full_f4_on_fixed_supports(order):
    # draws on one support with fresh nonzero coefficients share a trace,
    # over F_5 (where coefficients cancel and the leads move) and
    # F_(2^61-1), interleaved so that records also cross primes
    rng = random.Random(18 + (order is LEX))
    names, max_deg = (("x", "y"), 3) if order is LEX else (("x", "y", "z"), 2)
    seen, matrices = Counter(), 0
    for _ in range(4):
        # as many generators as variables: zero-dimensional, not unit
        supports = [{tuple(rng.randrange(max_deg + 1) for _ in names)
                     for _ in range(4)} for _ in names]
        trace = F4Trace()
        for _ in range(10):
            for p in (5, 2 ** 61 - 1):
                R = PolyRing(names, prime_field(p), order)
                gens = [R.poly([(m, rng.randrange(1, p)) for m in support])
                        for support in supports]
                matrices += assert_traced_run_is_full_f4(gens, trace).stats.matrices
                seen[trace.last] += 1
    assert seen["replayed"] and seen["fallback"] and matrices


def test_trace_record_of_another_system_falls_back():
    R = PolyRing(("x", "y", "z"), prime_field(32003))
    # the same leading monomials x^2 and x*y with other tails: the key
    # fits, the first S-row leaves the recorded columns
    same_leads = ([R.parse("x^2 + y*z"), R.parse("x*y + z^2")],
                  [R.parse("x^2 + y"), R.parse("x*y + z")])
    trace = F4Trace()
    assert_traced_run_is_full_f4(same_leads[0], trace)
    assert trace.last == "learned" and trace.record[1]
    old = trace.record
    assert_traced_run_is_full_f4(same_leads[1], trace)
    assert trace.last == "fallback" and trace.record is old
    # other leading monomials: the key does not fit, and the second full
    # run in a row that misses the record replaces it
    assert_traced_run_is_full_f4([R.parse("x^3 - y*z"), R.parse("y^2 - x")],
                                 trace)
    assert trace.last == "fallback" and trace.record[0] != old[0]


def test_trace_replay_drops_cancelled_terms():
    # 2*x and 2*y put x*y into the first S-polynomial twice, where it
    # cancels: a monomial outside the record with coefficient 0 mod p
    # is no mismatch
    R = PolyRing(("x", "y", "z"), prime_field(32003))
    trace = F4Trace()
    assert_traced_run_is_full_f4([R.parse("x^2 + y + z"),
                                  R.parse("x*y + y*z + 1")], trace)
    assert_traced_run_is_full_f4([R.parse("x^2 + 2*x + y + z"),
                                  R.parse("x*y + y*z + 2*y + 1")], trace)
    assert trace.last == "replayed"


def test_trace_keeps_its_record_without_a_full_run():
    F = prime_field(32003)
    R = PolyRing(("x", "y"), F)
    trace = F4Trace()
    buchberger([R.parse("x^2 + y"), R.parse("x*y - 1")], trace)
    old = trace.record
    # the main loop reaches the unit ideal: S = -x, then S = -1
    assert buchberger([R.parse("x*y - 1"), R.parse("x^2")], trace).is_unit
    assert trace.last == "fallback" and trace.record is old
    # over Q a trace is neither used nor filled
    Q = PolyRing(("x", "y"), QQ)
    fresh = F4Trace()
    gens = [Q.parse("x^2 + y"), Q.parse("x*y - 1")]
    assert buchberger(gens, fresh) == buchberger(gens)
    assert fresh.record is None and fresh.last is None


@pytest.mark.parametrize("order", (GREVLEX, LEX), ids=lambda o: o.name)
@pytest.mark.parametrize("width", (8, 16))
def test_codec_pack_matches_the_fieldwise_layout(order, width):
    codec = _Codec(4, order.name, width)
    rng = random.Random(width)
    for _ in range(200):
        m = tuple(rng.randrange(codec.cap + 1) for _ in range(4))
        fields = sum((e ^ codec.flip) << s for e, s in zip(m, codec.shifts))
        top = 0 if codec.degshift is None else sum(m) << codec.degshift
        assert codec.pack(m) == top | fields
    assert _Codec(0, order.name, width).pack(()) == 0


def test_deadline_raises_timeout_error():
    R = PolyRing(("x", "y"), prime_field(32003))
    gens = [R.parse("x^2 + y"), R.parse("x*y - 1")]
    with deadline(1e-9), pytest.raises(TimeoutError):
        buchberger(gens)
    with deadline(0), deadline(None):
        assert len(buchberger(gens)) == 3
    assert len(buchberger(gens)) == 3


def test_deadline_is_checked_at_every_site(monkeypatch):
    # the engine functions that reach the check, and how often: once on
    # entry, per main-loop batch, per F4 row packed or inserted (replays
    # too), per generator of an autoreduction round, in the border basis
    # certificate per border row, checked column and input, and over Q
    # per normal-form step and per coefficient in both passes of making a
    # remainder primitive
    seen, check = Counter(), groebner._check_deadline

    def spy():
        seen[sys._getframe(1).f_code.co_name] += 1
        check()
    monkeypatch.setattr(groebner, "_check_deadline", spy)
    alt, trace = alt_system(), F4Trace()
    for seed in (2024, split_seed(2024, 1)):  # learned, then replayed
        seen.clear()
        stats = compute_gi(alt, 6, prime_field(32771), seed, trace).stats
        assert seen.pop("_autoreduce") > 0 and seen.pop("_certify") > 0
        expected = {"_run": 1, "_f4_matrix": stats.matrix_rows}
        if trace.last != "replayed":
            expected["_main_loop"] = stats.matrices
        assert seen == expected
    assert trace.last == "replayed"
    seen.clear()
    stats = compute_gi(conics_affine_system(), 4, QQ, 2024).stats
    for name in ("_autoreduce", "_nf_packed", "_make_primitive", "_checked"):
        assert seen.pop(name) > 0, name
    assert seen == {"_run": 1, "_main_loop": stats.spairs_reduced}
