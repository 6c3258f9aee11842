"""The border basis certificate that stops F4 over F_p early.

`groebner._certify` proves the live set final once its leads leave
finitely many standard monomials.  The tests compare every result with
the full main loop (the certificate made to refuse), check that each of
its two conditions refuses on its own, and that a cap passing inside it
is a timeout.
"""

import random
import time

import pytest

from satura import groebner
from satura.arith import prime_field
from satura.groebner import F4Trace, buchberger, leading_ideal
from satura.harness import run_capped
from satura.poly import GREVLEX, LEX, PolyRing
from satura.problems import alt_system, conics_affine_system
from satura.saturate import (build_saturated_system, compute_gi,
                             draw_parameters, split_seed)


def refuse(monkeypatch):
    monkeypatch.setattr(groebner, "_certify", lambda *args: False)


def results(gens):
    gb, li = buchberger(gens), leading_ideal(gens)
    assert li.leading_monomials == gb.leading_monomials and li.stats == gb.stats
    return gb, li.leading_monomials, gb.stats


def assert_full_loop_agrees(cases, monkeypatch):
    """Each case's reduced basis and leading ideal are the full loop's;
    returns how many runs the certificate stopped."""
    ran = [results(gens) for gens in cases]
    with monkeypatch.context() as m:
        refuse(m)
        full = [results(gens) for gens in cases]
    for (gb, leads, st), (gb_full, leads_full, st_full) in zip(ran, full):
        assert (gb, leads) == (gb_full, leads_full)
        assert st_full.pairs_certified == 0
        # every pair created was pruned, reduced or left to the certificate,
        # unless the main loop stopped at the unit ideal
        assert gb.is_unit or st.pairs_created == (
            st.pairs_pruned_new + st.pairs_pruned_chain + st.spairs_reduced
            + st.pairs_certified)
    return sum(st.pairs_certified > 0 for _, _, st in ran)


@pytest.mark.parametrize("p", (32771, 1073741789))
def test_alt_cells_match_the_full_loop(p, monkeypatch):
    alt, field = alt_system(), prime_field(p)
    draws = [(i, seed) for seed in (2024, split_seed(2024, 1)) for i in (7, 6)]
    cases = [build_saturated_system(
        alt, draw_parameters(i, alt.n, alt.r, field, seed)).generators
        for i, seed in draws]
    assert assert_full_loop_agrees(cases, monkeypatch) == len(cases)
    values = [compute_gi(alt, i, field, seed).value for i, seed in draws]
    assert values == [7, 43, 7, 43]
    refuse(monkeypatch)
    assert [compute_gi(alt, i, field, seed).value for i, seed in draws] == values


def test_conics_cells_match_the_full_loop(monkeypatch):
    conics, field = conics_affine_system(), prime_field(32003)
    cases = [build_saturated_system(
        conics, draw_parameters(i, conics.n, conics.r, field, 2024)).generators
        for i in range(6)]
    assert_full_loop_agrees(cases, monkeypatch)


@pytest.mark.parametrize("p", (5, 32003, 2 ** 61 - 1))
@pytest.mark.parametrize("order", (GREVLEX, LEX), ids=lambda o: o.name)
def test_random_ideals_match_the_full_loop(p, order, monkeypatch):
    # as many generators as variables on random supports, mostly
    # zero-dimensional.  Lex never tries the certificate: its tails are
    # not bounded by the lead's degree, so a border matrix can grow as
    # large as the run
    rng = random.Random(p + (order is LEX))
    names = ("x", "y") if order is LEX else ("x", "y", "z")
    R = PolyRing(names, prime_field(p), order)
    cases = []
    for _ in range(12):
        supports = [{tuple(rng.randrange(3) for _ in names) for _ in range(4)}
                    for _ in names]
        cases.append([R.poly([(m, rng.randrange(1, p)) for m in support])
                      for support in supports])
    certified = assert_full_loop_agrees(cases, monkeypatch)
    assert certified >= 3 if order is GREVLEX else not certified


def packed(ring, polys):
    codec = groebner._codec(ring.nvars, ring.order.name, 16)
    dicts = [groebner._to_packed(f, codec) for f in polys]
    for d in dicts:
        groebner._monic(d, ring.field.p)
    return dicts, codec


def certify(ring, live, inputs):
    (live, codec), (inputs, _) = packed(ring, live), packed(ring, inputs)
    p = ring.field.p
    return groebner._certify([groebner._prepare(d, p) for d in live], inputs,
                             codec, p)


R = PolyRing(("x", "y"), prime_field(32003))


def test_a_groebner_basis_is_certified():
    # the reduced basis of <x^2 + y, x*y - 1>
    basis = [R.parse("x^2 + y"), R.parse("x*y - 1"), R.parse("y^2 + x")]
    assert certify(R, basis, basis[:2])


def test_zero_dimensional_leads_that_are_not_final_do_not_commute():
    # leads x^2, x*y, y^2 leave O = {1, x, y}, but S(x^2 - y, x*y - x)
    # reduces to y - 1: M_x M_y e_x = y while M_y M_x e_x = 1.  Each
    # generator vanishes under its own reduction, so the input check
    # alone would pass
    live = [R.parse("x^2 - y"), R.parse("x*y - x"), R.parse("y^2 - 1")]
    assert not certify(R, live, live)


def test_commuting_matrices_with_a_nonvanishing_input_are_refused():
    # {x^2, y^2} gives O = {1, x, y, x*y}, every border term reduces to 0
    # and M_x, M_y commute, but the input x*y is e_{xy}, not 0
    live = [R.parse("x^2"), R.parse("y^2")]
    assert not certify(R, live, [R.parse("x*y")])
    assert certify(R, live, live)


def test_a_cap_passing_inside_the_certificate_is_a_timeout(monkeypatch):
    # the g7 cell reaches its certificate within milliseconds; a pause
    # there lets a 0.05 s cap pass, and the certificate's own checks stop it
    certify_now = groebner._certify

    def late(*args):
        time.sleep(0.1)
        return certify_now(*args)
    monkeypatch.setattr(groebner, "_certify", late)
    alt, field = alt_system(), prime_field(32771)
    out = run_capped(lambda: compute_gi(alt, 7, field, 2024), 0.05)
    assert out.kind == "timeout"
    assert run_capped(lambda: compute_gi(alt, 7, field, 2024), None).result.value == 7


def test_a_replay_whose_certificate_refuses_falls_back(monkeypatch):
    alt, field, trace = alt_system(), prime_field(1073741789), F4Trace()
    compute_gi(alt, 6, field, 2024, trace)
    assert trace.last == "learned" and trace.record[3][3] > 0
    refuse(monkeypatch)
    params = draw_parameters(6, alt.n, alt.r, field, split_seed(2024, 1))
    gens = build_saturated_system(alt, params).generators
    full = buchberger(gens)
    gb = buchberger(gens, trace)
    assert trace.last == "fallback"
    assert gb == full and gb.stats == full.stats
    assert (gb.stats.matrices, gb.stats.pairs_certified) == (24, 0)


def test_alt_g5_is_certified_once():
    r = compute_gi(alt_system(), 5, prime_field(32771), 2024)
    assert r.value == 234
    assert (r.stats.certificates, r.stats.pairs_certified > 0) == (1, True)
