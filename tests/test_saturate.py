import random
from collections import Counter
from fractions import Fraction

import pytest

from satura.arith import QQ, prime_field
from satura.groebner import NotZeroDimensional, buchberger, quotient_basis
from satura.poly import GREVLEX, LEX, DimensionMismatch
from satura.problems import (ProblemInstance, _space_parameterization,
                             alt_system, conics_affine_system,
                             example_monomial_system)
from satura.saturate import (GeneratorVanishesModP, PrimeTooSmall,
                             SaturationParameters, build_saturated_system,
                             compute_gi, draw_parameters, integer_primitive,
                             lm_agreement_test, split_seed, splitmix64)

F32003 = prime_field(32003)

# the worked under-determined lex ideal: theta row (3/2, 2/3),
# lambda row (7/5, 9/11, -5/13, 13/17), no Rabinowitz part
WORKED_PARAMS = SaturationParameters(
    1,
    ((Fraction(3, 2), Fraction(2, 3)),),
    ((Fraction(7, 5), Fraction(9, 11), Fraction(-5, 13), Fraction(13, 17)),),
    None,
    "Q",
)


def test_splitmix_reference():
    # published reference stream for seed 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert split_seed(2024, 0) == 17189232650395478998
    assert split_seed(2024, 1) == 10805136638887256990
    # trial index, not call order, determines the stream
    assert split_seed(2024, 5) == split_seed(2024, 5)
    assert len({split_seed(2024, t) for t in range(1000)}) == 1000


def test_draw_parameters_shapes():
    params = draw_parameters(3, 8, 15, F32003, seed=42)
    assert len(params.theta) == 3 and all(len(r) == 8 for r in params.theta)
    assert len(params.lam) == 5 and all(len(r) == 15 for r in params.lam)
    assert len(params.mu) == 15
    assert all(0 <= c < 32003 for row in params.theta for c in row)
    assert params == draw_parameters(3, 8, 15, F32003, seed=42)
    assert params != draw_parameters(3, 8, 15, F32003, seed=43)
    assert draw_parameters(0, 2, 4, QQ, 1, include_mu=False).mu is None
    with pytest.raises(ValueError):
        draw_parameters(8, 8, 15, F32003, seed=1)
    with pytest.raises(ValueError):
        draw_parameters(-1, 8, 15, F32003, seed=1)


def test_parameter_shape_check():
    bad = SaturationParameters(1, ((1, 2, 3),), ((1, 2, 3, 4),), None, "Q")
    with pytest.raises(DimensionMismatch):
        bad.check_shape(2, 4)


def test_build_shape():
    inst = example_monomial_system()
    params = draw_parameters(1, inst.n, inst.r, F32003, seed=7)
    sat = build_saturated_system(inst, params)
    assert len(sat.generators) == inst.n + 1
    assert sat.ring.vars == inst.ring.vars + ("T",)
    t = sat.ring.nvars - 1
    for g in sat.generators[:-1]:
        assert all(m[t] == 0 for m, _ in g.terms)
    last = sat.generators[-1]
    assert max(m[t] for m, _ in last.terms) == 1
    assert last.terms[-1][0] == (0,) * sat.ring.nvars  # constant 1 present
    # without mu the ring is not extended
    slim = build_saturated_system(
        inst, draw_parameters(1, inst.n, inst.r, F32003, 7, include_mu=False))
    assert len(slim.generators) == inst.n
    assert slim.ring.vars == inst.ring.vars


def operator_built_system(f, params):
    """Theta.x - 1, Lambda.f and 1 - (mu.f) T written with + and *."""
    field = F32003 if params.field == F32003.descriptor else QQ
    ring = f.ring.with_field(field)
    if params.mu is not None:
        ring = ring.extend("T")
    polys = [ring.coerce(g) for g in f.polys]
    xs = ring.gens()[:f.n]
    gens = [sum((c * x for c, x in zip(row, xs)), ring.const(-1))
            for row in params.theta]
    gens += [sum((c * g for c, g in zip(row, polys)), ring.zero())
             for row in params.lam]
    if params.mu is not None:
        mu_f = sum((c * g for c, g in zip(params.mu, polys)), ring.zero())
        gens.append(1 - mu_f * ring.var("T"))
    return tuple(gens)


@pytest.mark.parametrize("field", [F32003, QQ], ids=["Fp", "Q"])
def test_build_matches_operator_arithmetic(field):
    cases = [(alt_system(), i) for i in (7, 6, 2)]
    cases += [(conics_affine_system(), 4), (example_monomial_system(), 1)]
    for inst, i in cases:
        for seed in (3, 2024):
            for mu in (True, False):
                params = draw_parameters(i, inst.n, inst.r, field, seed,
                                         include_mu=mu)
                got = build_saturated_system(inst, params).generators
                assert got == operator_built_system(inst, params)


def test_monomial_example_counts():
    inst = example_monomial_system()
    for seed in (2024, 7, 99):
        assert compute_gi(inst, 1, F32003, seed).value == 5
        assert compute_gi(inst, 0, F32003, seed).value == 6


def test_monomial_example_counts_rational():
    inst = example_monomial_system()
    assert compute_gi(inst, 1, QQ, 2024).value == 5
    assert compute_gi(inst, 0, QQ, 2024).value == 6


def test_gi_result_fields():
    inst = example_monomial_system()
    res = compute_gi(inst, 1, F32003, 2024)
    assert res.i == 1 and res.field == "Fp:32003"
    assert res.elapsed >= 0 and res.basis_size > 0 and not res.unit
    assert res.parameters.rng_seed == 2024


def test_mu_zero_gives_unit_ideal():
    inst = example_monomial_system()
    base = draw_parameters(1, inst.n, inst.r, F32003, seed=3)
    params = SaturationParameters(1, base.theta, base.lam,
                                  (0,) * inst.r, base.field)
    sat = build_saturated_system(inst, params)
    assert str(sat.generators[-1]) == "1"
    basis = buchberger(sat.generators)
    assert basis.is_unit
    assert quotient_basis(basis) == []


def test_prime_too_small():
    inst = example_monomial_system()
    with pytest.raises(PrimeTooSmall):
        compute_gi(inst, 1, prime_field(3), 1)
    assert compute_gi(inst, 1, prime_field(5), 1).value >= 0


def test_degenerate_draw_detected():
    # lambda rows both select f_1 = x1 and mu selects f_2 = x2:
    # <x1, 1 - x2 T> cuts out a curve, not points
    inst = example_monomial_system()
    params = SaturationParameters(0, (), ((1, 0, 0, 0), (1, 0, 0, 0)),
                                  (0, 1, 0, 0), "Fp:32003")
    sat = build_saturated_system(inst, params)
    with pytest.raises(NotZeroDimensional):
        quotient_basis(buchberger(sat.generators))


def test_integer_primitive():
    ring = example_monomial_system().ring
    f = ring.parse("3/2*x1 + 2/3*x2 - 1")
    assert str(integer_primitive(f)) == "9*x1 + 4*x2 - 6"
    assert str(integer_primitive(ring.parse("-2*x1 - 4"))) == "x1 + 2"
    assert integer_primitive(ring.zero()).is_zero()
    with pytest.raises(ValueError):
        integer_primitive(ring.with_field(F32003).parse("x1"))


def test_worked_primitive_generators():
    inst = example_monomial_system()
    ring = inst.ring.with_order(LEX)
    inst_lex = ProblemInstance(inst.name, ring,
                               tuple(ring.coerce(f) for f in inst.polys))
    sat = build_saturated_system(inst_lex, WORKED_PARAMS)
    prim = [str(integer_primitive(g)) for g in sat.generators]
    assert prim == [
        "9*x1 + 4*x2 - 6",
        "9295*x1^3*x2^2 - 4675*x1*x2^2 + 17017*x1 + 9945*x2",
    ]


def test_lex_agreement_goldens():
    """Frozen behaviour of the worked ideal: every prime in the unlucky
    set produces a leading-monomial mismatch, 7 agrees."""
    inst = example_monomial_system()
    res = lm_agreement_test(inst, 1, WORKED_PARAMS, 7, order=LEX)
    assert res.agree and res.witness is None
    assert set(res.lm_rational) == {(1, 0), (0, 5)}
    assert res.lm_rational == res.lm_modular

    witnesses = {2: (0, 1), 3: (0, 1), 5: (0, 1), 11: (0, 1), 13: (0, 3)}
    for p, w in witnesses.items():
        res = lm_agreement_test(inst, 1, WORKED_PARAMS, p, order=LEX)
        assert not res.agree, p
        assert res.witness == w
        assert (res.witness in res.lm_rational) ^ (res.witness in res.lm_modular)
        assert str(res).startswith("Disagree")


def test_agreement_results_both_orders():
    """Full agreement results on the worked ideal, lex and grevlex: the
    rational basis comes from the fraction-free kernel, the modular one
    from delayed reduction mod p."""
    inst = example_monomial_system()
    lm_q = {"lex": ((0, 5), (1, 0)), "grevlex": ((1, 0), (0, 5))}
    lm_p = {
        "lex": {13: ((0, 3), (1, 0))},
        "grevlex": {13: ((1, 0), (0, 3))},
    }
    for order in (LEX, GREVLEX):
        for p in (2, 3, 5, 7, 11, 13):
            res = lm_agreement_test(inst, 1, WORKED_PARAMS, p, order=order)
            modular = (lm_q[order.name] if p == 7
                       else lm_p[order.name].get(p, ((0, 1), (1, 0))))
            witness = None if p == 7 else ((0, 3) if p == 13 else (0, 1))
            assert (res.agree, res.witness, res.lm_rational,
                    res.lm_modular) == (p == 7, witness, lm_q[order.name],
                                        modular), (order.name, p)


def test_agreement_integer_generators():
    # unit leading coefficients and integer entries: reduction mod p is
    # harmless, so any valid p agrees
    inst = example_monomial_system()
    params = SaturationParameters(1, ((1, 0),), ((0, 1, 0, 0),), None, "Q")
    for p in (5, 7, 32003):
        assert lm_agreement_test(inst, 1, params, p).agree


def test_agreement_requires_rational_parameters():
    inst = example_monomial_system()
    params = draw_parameters(1, inst.n, inst.r, F32003, 1, include_mu=False)
    with pytest.raises(ValueError):
        lm_agreement_test(inst, 1, params, 7)


def test_generator_vanishes_mod_p():
    inst = example_monomial_system()
    params = SaturationParameters(1, ((1, 1),), ((0, 0, 0, 0),), None, "Q")
    with pytest.raises(GeneratorVanishesModP):
        lm_agreement_test(inst, 1, params, 7)


def test_base_locus_points_do_not_extend():
    # on every declared component: the lambda rows vanish identically
    # and the Rabinowitz generator collapses to the constant 1
    for inst, spaces in ((example_monomial_system(), None),
                         (alt_system(), 3)):
        i = min(2, inst.n - 1)
        params = draw_parameters(i, inst.n, inst.r, QQ, seed=5, qrange=(-9, 9))
        sat = build_saturated_system(inst, params)
        E = sat.ring
        for space in inst.base_locus[:spaces]:
            values = [E.coerce(v) for v in
                      _space_parameterization(inst.ring, space)]
            values.append(E.var("T"))
            for g in sat.generators[params.i:-1]:
                assert g.substitute(values).is_zero()
            assert g.ring.one() == sat.generators[-1].substitute(values)


def test_permutation_invariance_of_modal_count():
    inst = example_monomial_system()
    flipped = ProblemInstance("flipped", inst.ring,
                              tuple(reversed(inst.polys)), inst.base_locus)

    def modal(problem):
        counts = Counter(compute_gi(problem, 1, F32003, split_seed(11, t)).value
                         for t in range(12))
        return counts.most_common(1)[0][0]

    assert modal(inst) == modal(flipped) == 5
