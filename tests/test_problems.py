import math

import pytest

from satura.arith import QQ, prime_field
from satura.poly import LEX, PolyRing
from satura.problems import (ALT_CONJ_PAIRS, ProblemInstance,
                             _check_primitive, alt_conj,
                             alt_coupler_instance, alt_system,
                             conics_affine_system,
                             conics_certification_monomials,
                             conics_pstar_system, coupler_coefficients,
                             example_monomial_system, get_problem,
                             verify_base_locus)


def test_monomial_example_shape():
    inst = example_monomial_system()
    assert inst.r == 4 and inst.n == 2
    assert inst.degrees() == (1, 1, 3, 5)
    assert len(inst.base_locus) == 1
    assert verify_base_locus(inst).ok


def test_conics_shape():
    inst = conics_affine_system()
    assert inst.r == 14 and inst.n == 6
    assert inst.degrees() == (0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3)
    assert str(inst.polys[0]) == "1"
    # with the constant 1 among the generators the variety is empty,
    # hence no base locus to declare
    assert inst.base_locus == ()


def test_pstar_combinations():
    combos = conics_pstar_system()
    assert len(combos) == 6
    assert all(g.degree() == 3 for g in combos)
    # each combo must actually involve the two cubic rows
    ring = conics_affine_system().ring
    assert all(g.ring == ring for g in combos)


def test_certification_monomials():
    ms = conics_certification_monomials()
    assert len(ms) == 18
    assert all(sum(m) in (1, 2) for m in ms)
    assert len(set(ms)) == 18


def test_alt_shape_and_degrees():
    inst = alt_system()
    assert inst.r == 15 and inst.n == 8
    assert inst.degrees() == (2, 3, 3, 4, 4, 5, 5, 4, 5, 5, 6, 6, 6, 7, 7)
    assert math.prod(inst.degrees()) == 7_620_480_000
    assert len(inst.base_locus) == 7


def test_alt_conjugation_involution():
    inst = alt_system()
    # declared pairing is an involution on 1..15
    assert sorted(ALT_CONJ_PAIRS) == list(range(1, 16))
    for j, k in ALT_CONJ_PAIRS.items():
        assert ALT_CONJ_PAIRS[k] == j
    # and the polynomials realize it
    for j, k in ALT_CONJ_PAIRS.items():
        assert alt_conj(inst.polys[j - 1]) == inst.polys[k - 1]
    for f in inst.polys:
        assert alt_conj(alt_conj(f)) == f


def test_alt_base_locus_identities():
    report = verify_base_locus(alt_system())
    assert report.ok
    assert report.checked == 7 * 15
    assert report.failures == ()
    # the membership test holds under lex as well
    assert verify_base_locus(alt_system().with_order(LEX)).ok


def test_verify_base_locus_rejects_bad_spaces():
    inst = example_monomial_system()
    R = inst.ring
    for space, message in (((R.parse("x1 - 1"), R.parse("x1 - 2")), "inconsistent"),
                           ((R.parse("x1 - x2^2"),), "not linear")):
        bad = ProblemInstance(inst.name, R, inst.polys, (space,))
        with pytest.raises(ValueError, match=message):
            verify_base_locus(bad)


def test_verify_base_locus_reports_each_failure():
    # x*a vanishes on space 1 (x = y = 0) and on none of the other six,
    # so f_8 + x*a fails exactly there, in either order
    alt = alt_system()
    R = alt.ring
    polys = list(alt.polys)
    polys[7] = polys[7] + R.parse("x*a")
    for order in (alt.ring.order, LEX):
        bad = ProblemInstance("alt", R, tuple(polys), alt.base_locus)
        report = verify_base_locus(bad.with_order(order))
        assert not report.ok and report.checked == 7 * 15
        assert report.failures == tuple((s, 8) for s in range(2, 8))


def test_transcription_is_primitive():
    for inst in (example_monomial_system(), conics_affine_system(),
                 alt_system()):
        for f in inst.polys:
            nums = [c.numerator for _, c in f.terms]
            assert all(c.denominator == 1 for _, c in f.terms)
            assert math.gcd(*nums) == 1


def test_transcription_check_rejects_non_primitive():
    R = PolyRing(("x",), QQ)
    for text in ("2*x + 4", "1/2*x"):
        with pytest.raises(ValueError):
            _check_primitive(R.parse(text))
    f = R.parse("-x + 3")
    assert _check_primitive(f) is f


def test_coupler_coefficients():
    cs = coupler_coefficients((2, 3))
    assert len(cs) == 15
    assert cs[0] == 8 * 27  # p^3 pb^3
    assert cs[13] == 2 and cs[14] == 3
    F = prime_field(101)
    csF = coupler_coefficients((2, 3), F)
    assert csF == [int(c) % 101 for c in cs]


def test_alt_coupler_instance():
    pts = [(i + 1, 2 * i + 1) for i in range(8)]
    F = prime_field(32003)
    gs = alt_coupler_instance(pts, F)
    assert len(gs) == 8
    assert all(g.ring.field == F for g in gs)
    assert all(g.degree() == 7 for g in gs)
    # specialization commutes with evaluation: G_i(x) = sum c_j f_j(x)
    inst = alt_system()
    ringF = inst.ring.with_field(F)
    fsF = [ringF.coerce(f) for f in inst.polys]
    x = (3, 1, 4, 1, 5, 9, 2, 6)
    for pt, g in zip(pts[:2], gs[:2]):
        cs = coupler_coefficients(pt, F)
        expect = sum(c * f.evaluate(x) for c, f in zip(cs, fsF)) % 32003
        assert g.evaluate(x) == expect
    with pytest.raises(ValueError):
        alt_coupler_instance(pts[:5], F)


def test_registry():
    assert get_problem("alt").name == "alt"
    assert get_problem("monomial").name == "monomial-example"
    assert get_problem("conics").name == "conics-affine"
    with pytest.raises(ValueError):
        get_problem("nope")


def test_instances_cached():
    assert get_problem("alt") is get_problem("alt")
    assert example_monomial_system() is example_monomial_system()
