"""`leading_ideal` against `buchberger`, the path it replaces for counts.

Both run the same main loop; `leading_ideal` stops before the final
interreduction.  The tests check that it gives the reduced basis's
leading monomials, in order, with the same stats and the same F4 trace
bookkeeping, and that the counts built on it never reach the reduction.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from satura import groebner
from satura.arith import QQ, prime_field
from satura.groebner import (F4Trace, LeadingIdeal, buchberger, ideal_degree,
                             is_zero_dimensional, leading_ideal, quotient_basis)
from satura.harness import hilbert_table
from satura.hilbert import affine_hilbert_function
from satura.poly import GREVLEX, LEX, PolyRing
from satura.problems import (alt_system, conics_affine_system,
                             example_monomial_system)
from satura.saturate import (SaturationParameters, build_saturated_system,
                             compute_gi, draw_parameters, integer_primitive,
                             lm_agreement_test, split_seed)

SEEDS = (2024, split_seed(2024, 1), split_seed(2024, 2))


def assert_agrees(gens, traces=None):
    """leading_ideal(gens) reads as buchberger(gens) does: the same
    leading monomials in the same order, len, is_unit and stats; with a
    pair of traces in the same state, both leave them in the same state.
    Returns both results."""
    gb = buchberger(gens, traces and traces[0])
    li = leading_ideal(gens, traces and traces[1])
    assert li.ring == gb.ring
    assert li.leading_monomials == gb.leading_monomials
    assert (len(li), li.is_unit) == (len(gb), gb.is_unit)
    # only the final reduction can overflow 8-bit fields alone
    if (li.stats.width, gb.stats.width) == (8, 16):
        assert replace(li.stats, width=16) == gb.stats
    else:
        assert li.stats == gb.stats
    if traces:
        assert traces[1].last == traces[0].last
        assert traces[1].record == traces[0].record
    return gb, li


def assert_counts_agree(gb, li):
    assert is_zero_dimensional(li) == is_zero_dimensional(gb)
    if is_zero_dimensional(gb):
        assert quotient_basis(li) == quotient_basis(gb)
        assert ideal_degree(li) == ideal_degree(gb) == len(quotient_basis(gb))
    if gb.ring.order.degree_compatible:
        assert (affine_hilbert_function(li, 6)
                == affine_hilbert_function(gb, 6))


def system(problem, i, field, seed):
    params = draw_parameters(i, problem.n, problem.r, field, seed)
    return build_saturated_system(problem, params).generators


@pytest.mark.parametrize("p", (32771, 1073741789))
def test_alt_cells_agree(p):
    # one trace pair per cell, so the split seeds replay the first draw
    alt, field = alt_system(), prime_field(p)
    traces = {i: (F4Trace(), F4Trace()) for i in (7, 6)}
    seen = set()
    for seed in SEEDS:
        for i in (7, 6):
            gens = system(alt, i, field, seed)
            assert_counts_agree(*assert_agrees(gens))
            assert_agrees(gens, traces[i])
            seen.add(traces[i][1].last)
    assert seen == {"learned", "replayed"}


def test_conics_g4_over_q_agrees():
    conics = conics_affine_system()
    gb, li = assert_agrees(system(conics, 4, QQ, split_seed(2024, 0)))
    assert_counts_agree(gb, li)
    assert ideal_degree(li) == 9


@pytest.mark.parametrize("field", (QQ, prime_field(32003)), ids=str)
def test_monomial_example_agrees(field):
    inst = example_monomial_system()
    traces = (F4Trace(), F4Trace())
    for i in (1, 0):
        for seed in SEEDS:
            gens = system(inst, i, field, seed)
            assert_counts_agree(*assert_agrees(gens))
            assert_agrees(gens, traces)
    # the worked lex ideal has no Rabinowitz part
    worked = SaturationParameters(
        1, ((Fraction(3, 2), Fraction(2, 3)),),
        ((Fraction(7, 5), Fraction(9, 11), Fraction(-5, 13), Fraction(13, 17)),),
        None, "Q")
    gens = build_saturated_system(inst.with_order(LEX), worked).generators
    prim = [integer_primitive(g) for g in gens]
    if field.p is not None:
        prim = [g.ring.with_field(field).coerce(g) for g in prim]
    assert_counts_agree(*assert_agrees(prim))


def random_poly(ring, rng, max_deg):
    field = ring.field
    terms = []
    for _ in range(rng.randrange(1, 5)):
        m = tuple(rng.randrange(max_deg + 1) for _ in range(ring.nvars))
        c = (Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             if field.p is None else rng.randrange(field.p))
        terms.append((m, c))
    return ring.poly(terms)


def random_linear(ring, rng):
    n = ring.nvars
    return random_poly(ring, rng, 0) + ring.poly(
        [(tuple(int(k == j) for k in range(n)), rng.randint(-3, 3))
         for j in range(n)])


FIELDS = (prime_field(5), prime_field(32003), prime_field(2 ** 61 - 1), QQ)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("order", (GREVLEX, LEX), ids=lambda o: o.name)
def test_random_ideals_agree(field, order):
    # seven random ideals per field and order, some with linear forms,
    # beside the unit, empty, all-linear and positive-dimensional cases
    rng = random.Random(20 + (field.p or 0) % 97 + (order is LEX))
    R = PolyRing(("x", "y", "z"), field, order)
    # bivariate under lex keeps the rational bases small
    names, max_deg = (("x", "y"), 3) if order is LEX else (("x", "y", "z"), 2)
    S = PolyRing(names, field, order)
    cases = []
    for t in range(7):
        gens = [random_poly(S, rng, max_deg) for _ in range(2 + t % 2)]
        if t % 3 == 0:
            gens.append(random_linear(S, rng))
        cases.append(gens)
    cases += [
        [R.parse("x*y - 1"), R.parse("x^2"), R.parse("z^3 + y")],     # unit
        [R.parse("x + y + z"), R.parse("x + y + z + 1")],           # unit, linear
        [R.zero(), R.zero()],                                       # empty
        [R.parse("x + 2*y - z + 1"), R.parse("y + z - 1"),
         R.parse("x - z + 3")],                                     # all linear
        [R.parse("x*y - z"), R.parse("y^2 - x*z")],                 # a curve
        [R.parse("x - y"), R.parse("y*z^2 + x")],                   # a surface
    ]
    kinds = set()
    traces = (F4Trace(), F4Trace())
    for gens in cases:
        gb, li = assert_agrees(gens)
        assert_counts_agree(gb, li)
        assert_agrees(gens, traces)
        kinds.add("unit" if li.is_unit else "empty" if not len(li)
                  else "finite" if is_zero_dimensional(li) else "infinite")
    assert kinds == {"unit", "empty", "finite", "infinite"}
    with pytest.raises(ValueError):
        leading_ideal([])


def test_leading_ideal_overflows_as_buchberger_does():
    for order in (GREVLEX, LEX):
        R = PolyRing(("x", "y"), prime_field(32003), order)
        gens = [R.parse("x - y"), R.parse("x^100*y^100 + 1")]
        li = leading_ideal(gens)
        assert set(li.leading_monomials) == {(0, 200), (1, 0)}
        assert li.stats.width == 16
        assert_agrees(gens)
        with pytest.raises(OverflowError):
            leading_ideal([R.parse("x - y"), R.parse("x^20000*y^20000 + 1")])


def test_gi_result_stats_are_buchberger_stats():
    alt, field = alt_system(), prime_field(32771)
    for i in (7, 6):
        r = compute_gi(alt, i, field, 2024)
        assert r.stats == buchberger(system(alt, i, field, 2024)).stats
        assert r.basis_size == len(leading_ideal(system(alt, i, field, 2024)))
        # stats stay out of equality and hashing
        other = replace(r, stats=None)
        assert other == r and hash(other) == hash(r)


def test_counts_never_reach_the_final_reduction(monkeypatch):
    alt, field = alt_system(), prime_field(32771)
    inst = example_monomial_system()
    worked = SaturationParameters(
        1, ((Fraction(3, 2), Fraction(2, 3)),),
        ((Fraction(7, 5), Fraction(9, 11), Fraction(-5, 13), Fraction(13, 17)),),
        None, "Q")

    def results():
        gi = [compute_gi(alt, i, field, 2024) for i in (7, 6)]
        gi.append(compute_gi(inst, 1, QQ, 2024))
        rows = hilbert_table(alt, [7, 6], 32771, 8, 2024).cells
        agree = [lm_agreement_test(inst.with_order(order), 1, worked, p)
                 for p in (7, 13) for order in (LEX, GREVLEX)]
        return ([replace(r, elapsed=0) for r in gi],
                [{k: v for k, v in c.items() if k != "elapsed"} for c in rows],
                agree)

    before = results()

    def refuse(*args):
        raise AssertionError("the final reduction ran")

    monkeypatch.setattr(groebner, "_reduced_basis", refuse)
    with pytest.raises(AssertionError):
        buchberger([PolyRing(("x",), QQ).parse("x^2 - 1")])
    assert results() == before
    assert [c["value"] for c in before[1]] == [[1, 3, 6, 7, 7, 7, 7, 7, 7],
                                               [1, 4, 10, 20, 35, 43, 43, 43, 43]]


def test_leading_ideal_is_a_leading_ideal():
    R = PolyRing(("x", "y"), prime_field(32003))
    li = leading_ideal([R.parse("x^2 - y"), R.parse("y^2 - 1")])
    assert isinstance(li, LeadingIdeal)
    assert li.leading_monomials == ((0, 2), (2, 0)) and len(li) == 2
    assert not li.is_unit and ideal_degree(li) == 4
