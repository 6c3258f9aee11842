import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from satura.arith import QQ, prime_field
from satura.groebner import buchberger, ideal_degree
from satura.hilbert import (BudgetExceeded, DuplicatePoints,
                            OrderNotDegreeCompatible, SingularSubmatrix, _rank,
                            affine_hilbert_function, emit_certification_system,
                            find_points_bruteforce, jde_dimension,
                            monomial_columns, veronese_matrix,
                            veronese_rank_lower_bound)
from satura.poly import GREVLEX, LEX, PolyRing, polys_from_json
from satura.problems import conics_pstar_system


def split_system(ring, rng, max_deg=3):
    """One monic univariate polynomial per variable: zero-dimensional
    and radical-friendly for the point-count oracle."""
    polys = []
    for v in ring.vars:
        x = ring.var(v)
        deg = rng.randrange(1, max_deg + 1)
        f = x ** deg
        for k in range(deg):
            f = f + (x ** k).scale(rng.randint(-4, 4))
        polys.append(f)
    return polys


def test_zero_ideal_profile():
    R = PolyRing(("x", "y"), QQ)
    prof = affine_hilbert_function(buchberger([R.zero()]), 6)
    assert prof.values == {d: math.comb(d + 2, 2) for d in range(7)}
    assert prof.stabilized_at is None and prof.stable_value is None


def test_unit_ideal_profile():
    R = PolyRing(("x", "y"), QQ)
    prof = affine_hilbert_function(buchberger([R.one()]), 4)
    assert prof.row() == (0, 0, 0, 0, 0)
    assert prof.stabilized_at == 0 and prof.stable_value == 0


def test_staircase_profile():
    R = PolyRing(("x", "y"), prime_field(7))
    gb = buchberger([R.parse("x^2"), R.parse("y^3")])
    prof = affine_hilbert_function(gb, 5)
    assert prof.row() == (1, 3, 5, 6, 6, 6)
    assert prof.stabilized_at == 3
    assert prof.stable_value == 6 == ideal_degree(gb)


def test_lex_rejected():
    R = PolyRing(("x", "y"), QQ, LEX)
    gb = buchberger([R.parse("x - y^2")])
    with pytest.raises(OrderNotDegreeCompatible):
        affine_hilbert_function(gb, 3)
    grev = PolyRing(("x", "y"), QQ)
    with pytest.raises(ValueError):
        affine_hilbert_function(buchberger([grev.parse("x")]), -1)


def test_profile_monotone_and_stable_fuzz():
    rng = random.Random(31)
    R = PolyRing(("x", "y", "z"), prime_field(101))
    for _ in range(20):
        gb = buchberger(split_system(R, rng))
        deg = ideal_degree(gb)
        prof = affine_hilbert_function(gb, 9)
        row = prof.row()
        assert all(a <= b for a, b in zip(row, row[1:]))
        assert prof.stabilized_at is not None
        assert prof.stable_value == deg == row[-1]


def test_jde_tiny_exact():
    R = PolyRing(("x", "y"), QQ)
    h = [R.parse("x"), R.parse("y")]
    assert jde_dimension(h, 0, 0) == (0, 1)
    assert jde_dimension(h, 1, 0) == (2, 1)
    assert jde_dimension(h, 2, 0) == (5, 1)
    with pytest.raises(ValueError):
        jde_dimension([R.zero()], 1, 1)
    with pytest.raises(ValueError):
        jde_dimension(h, -1, 0)


def test_jde_conics_spot_values():
    # two cells of the replication grid; the full grid runs in the
    # acceptance suite
    combos = conics_pstar_system()
    assert jde_dimension(combos, 2, 0) == (0, 28)
    assert jde_dimension(combos, 2, 2) == (3, 25)


def test_jde_mod_p_matches_rational():
    combos = conics_pstar_system()
    ring_p = combos[0].ring.with_field(prime_field(32003))
    combos_p = [ring_p.coerce(g) for g in combos]
    for d, e in ((1, 3), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 3)):
        assert jde_dimension(combos_p, d, e) == jde_dimension(combos, d, e)


def test_jde_independent_of_ring_order():
    # columns are enumerated from (n, d+e) alone; a lex copy of the
    # system spans the same space
    combos = conics_pstar_system()
    ring_lex = combos[0].ring.with_order(LEX)
    combos_lex = [ring_lex.coerce(g) for g in combos]
    for d, e in ((2, 2), (2, 3), (3, 1)):
        assert jde_dimension(combos_lex, d, e) == jde_dimension(combos, d, e)


@pytest.mark.parametrize("order", (GREVLEX, LEX), ids=("grevlex", "lex"))
@pytest.mark.parametrize("p", (5, 32771, 2 ** 61 - 1, 2 ** 62 - 57,
                               pytest.param(None, id="Q")))
def test_jde_matches_dense_macaulay_rank(p, order):
    # the Macaulay matrix in generation order (generator, then shift),
    # eliminated densely: the degree <= d part of the span has dimension
    # rank(M) - rank(M restricted to the columns of degree > d)
    rng = random.Random(47)
    F = QQ if p is None else prime_field(p)
    for _ in range(25):
        n = rng.randrange(2, 4)
        R = PolyRing(("x", "y", "z")[:n], F, order)
        h = []
        for _ in range(rng.randrange(1, 4)):
            deg = rng.randrange(1, 4)
            monos = [m for m in itertools.product(range(deg + 1), repeat=n)
                     if sum(m) <= deg]
            lead = rng.choice([m for m in monos if sum(m) == deg])
            h.append(R.poly([(lead, 1)] + [(m, rng.randint(-5, 5)) for m in monos
                                           if m != lead and rng.random() < 0.5]))
        if rng.random() < 0.5:   # a dependent generator
            h.append(h[0] * R.var("x") + h[-1].scale(F.element(3)))
        D = rng.randrange(0, 6)
        d = rng.randrange(0, D + 1)
        cols = [m for m in itertools.product(range(D + 1), repeat=n)
                if sum(m) <= D]
        rows = []
        for f in h:
            for shift in cols:
                if sum(shift) + f.degree() <= D:
                    g = f * R.poly([(shift, 1)])
                    coeffs = dict(g.terms)
                    rows.append([coeffs.get(m, 0) for m in cols])
        high = [j for j, m in enumerate(cols) if sum(m) > d]
        dim = dense_rank(rows, F) - dense_rank([[r[j] for j in high] for r in rows], F)
        assert jde_dimension(h, d, D - d) == (dim, math.comb(n + d, d) - dim)


def test_jde_sandwich_fuzz():
    rng = random.Random(32)
    R = PolyRing(("x", "y"), QQ)
    for _ in range(12):
        h = split_system(R, rng, max_deg=2)
        gb = buchberger(h)
        prof = affine_hilbert_function(gb, 6)
        for d in range(4):
            prev = -1
            bounds = []
            for e in range(5):
                dim, bound = jde_dimension(h, d, e)
                assert dim >= prev
                assert bound >= prof.values[d]
                prev = dim
                bounds.append(bound)
            # large e pins the bound to the true Hilbert value
            assert bounds[-1] == prof.values[d]


def test_monomial_columns():
    cols = monomial_columns(2, 2)
    assert cols == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert len(monomial_columns(3, 4)) == math.comb(7, 4)


def test_veronese_matrix_entries():
    M = veronese_matrix([(Fraction(1), Fraction(2)), (Fraction(2), Fraction(3))],
                        1, QQ)
    assert M.shape == (2, 3)
    assert M.columns == ((0, 0), (1, 0), (0, 1))
    assert M.entries == ((1, 1, 2), (1, 2, 3))
    F = prime_field(5)
    Mp = veronese_matrix([(2, 3)], 2, F)
    assert Mp.entries[0] == (1, 2, 3, 4, 1, 4)


def test_veronese_rank_bounds_hilbert():
    F = prime_field(11)
    R = PolyRing(("x", "y"), F)
    polys = [R.parse("x^2 - 1"), R.parse("y^2 - y")]
    pts = find_points_bruteforce(polys)
    assert all(f.evaluate(pt) == 0 for pt in pts for f in polys)
    gb = buchberger(polys)
    prof = affine_hilbert_function(gb, 5)
    for d in range(4):
        assert veronese_rank_lower_bound(pts, d, F) <= prof.values[d]
    # rank reaches HF once d is large enough to separate the points
    assert veronese_rank_lower_bound(pts, 2, F) == 4 == ideal_degree(gb)


def test_rank_over_q_and_mod_p():
    rows = [(1, 2), (3, 1)]  # determinant -5
    assert _rank([[Fraction(v) for v in r] for r in rows], QQ) == 2
    assert _rank(rows, prime_field(5)) == 1
    assert _rank(rows, prime_field(7)) == 2
    # denominators are cleared before the integer elimination
    assert _rank([(Fraction(1, 2), Fraction(1, 3)), (Fraction(3), Fraction(2))],
                 QQ) == 1


def dense_rank(rows, F):
    """Textbook Gaussian elimination on a dense copy, row by row, with
    plain int or Fraction arithmetic made canonical by F.element."""
    rows = [[F.element(v) for v in r] for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = F.inv(rows[rank][col])
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [F.element(a - f * b) for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", (5, 32771, 2 ** 61 - 1, 2 ** 62 - 57,
                               pytest.param(None, id="Q")))
def test_rank_matches_dense_elimination(p):
    rng = random.Random(43)
    F = QQ if p is None else prime_field(p)

    def entry():
        # sparse factors leave zero entries; over Q the entries are fractions
        if rng.random() >= 0.6:
            return 0
        if p is None:
            return Fraction(rng.randint(-9, 9), rng.randrange(1, 7))
        return rng.randrange(p)

    for _ in range(40):
        k, n, r = rng.randrange(1, 7), rng.randrange(1, 8), rng.randrange(0, 6)
        # rank <= r by construction
        left = [[entry() for _ in range(r)] for _ in range(k)]
        right = [[entry() for _ in range(n)] for _ in range(r)]
        rows = [[F.element(sum(a * b for a, b in zip(row, col)))
                 for col in zip(*right)] if r else [F.zero] * n for row in left]
        assert _rank(rows, F) == dense_rank(rows, F)


def test_veronese_duplicates_warn():
    F = prime_field(7)
    with pytest.warns(DuplicatePoints):
        r = veronese_rank_lower_bound([(1, 2), (1, 2), (3, 4)], 1, F)
    assert r == 2


def test_random_points_have_full_rank():
    rng = random.Random(33)
    F = prime_field(32003)
    pts = [tuple(rng.randrange(32003) for _ in range(3)) for _ in range(5)]
    assert veronese_rank_lower_bound(pts, 2, F) == 5


def test_find_points():
    F = prime_field(5)
    R = PolyRing(("x", "y"), F)
    pts = find_points_bruteforce([R.parse("x^2 - x"), R.parse("y - 2")])
    assert pts == [(0, 2), (1, 2)]
    with pytest.raises(BudgetExceeded):
        find_points_bruteforce([R.parse("x")], budget=3)


def test_point_count_equals_ideal_degree():
    # split systems with distinct rational roots: radical, all solutions
    # rational, so the sweep must find exactly ideal_degree points
    rng = random.Random(34)
    F = prime_field(11)
    R = PolyRing(("x", "y"), F)
    for _ in range(15):
        polys = []
        for v in R.vars:
            x = R.var(v)
            roots = rng.sample(range(11), rng.randrange(1, 4))
            f = R.one()
            for a in roots:
                f = f * (x - R.const(a))
            polys.append(f)
        assert len(find_points_bruteforce(polys)) == ideal_degree(buchberger(polys))


def test_certification_system_minimal():
    R = PolyRing(("x",), QQ)
    cert = emit_certification_system([R.parse("x - 3")], [(Fraction(3),)],
                                     0, [(0,)])
    assert [str(g) for g in cert.polynomials] == ["y1_x - 3", "L1_1 - 1"]
    assert cert.ring.vars == ("y1_x", "L1_1")


def test_certification_system_shape():
    R = PolyRing(("x", "y"), QQ)
    system = [R.parse("x^2 - 1"), R.parse("y^2 - 1")]
    pts = [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1))]
    cert = emit_certification_system(system, pts, 1, [(0, 1), (0, 0)])
    k, n = 2, 2
    assert len(cert.polynomials) == k * n + k * k
    assert cert.ring.nvars == k * n + k * k
    assert cert.ring.vars[:2] == ("y1_x", "y1_y")
    assert cert.ring.vars[-1] == "L2_2"
    # the point equations really are G evaluated in the y block
    assert str(cert.polynomials[0]) == "y1_x^2 - 1"
    parsed = json.loads(cert.to_json())
    assert parsed["degree"] == 1
    ring2, polys2 = polys_from_json(parsed)
    assert ring2 == cert.ring and tuple(polys2) == cert.polynomials


def test_certification_singular_selection():
    R = PolyRing(("x", "y"), QQ)
    system = [R.parse("x^2 - 1"), R.parse("y^2 - 1")]
    pts = [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1))]
    with pytest.raises(SingularSubmatrix):
        emit_certification_system(system, pts, 1, [(1, 0), (0, 0)])
    with pytest.raises(ValueError):
        emit_certification_system(system[:1], pts, 1, [(0, 1), (0, 0)])
    for bad in ((-1, 1), (0, "1"), (0.5, 0)):
        with pytest.raises(ValueError, match="exponent"):
            emit_certification_system(system, pts, 1, [bad, (0, 0)])
