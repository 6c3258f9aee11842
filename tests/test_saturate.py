import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from satura import groebner
from satura.arith import QQ, prime_field
from satura.groebner import (F4Trace, GroebnerBasis, NotZeroDimensional,
                             buchberger, is_zero_dimensional, quotient_basis,
                             standard_monomials)
from satura.poly import GREVLEX, LEX, DimensionMismatch, PolyRing, polys_to_json
from satura.problems import (ProblemInstance, alt_system, conics_affine_system,
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
    # the builder sorts packed monomials; + and * sort by the order's key
    cases = [(alt_system(), i) for i in (7, 6, 2)]
    cases += [(conics_affine_system(), 4), (example_monomial_system(), 1)]
    for (inst, i), order in itertools.product(cases, (GREVLEX, LEX)):
        inst = inst.with_order(order)
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
    # the gate sits where f is reduced mod p, so every caller gets it
    alt = alt_system()
    params = draw_parameters(7, alt.n, alt.r, prime_field(3), 2024)
    with pytest.raises(PrimeTooSmall, match="^p = 3 must be at least 5 and "
                       "exceed the largest coefficient magnitude 4$"):
        build_saturated_system(alt, params)
    # 5 exceeds 4, and a draw over Q needs no gate
    params = draw_parameters(7, alt.n, alt.r, prime_field(5), 2024)
    assert build_saturated_system(alt, params).generators
    params = draw_parameters(7, alt.n, alt.r, QQ, 2024)
    assert build_saturated_system(alt, params).generators


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
    inst = example_monomial_system().with_order(LEX)
    res = lm_agreement_test(inst, 1, WORKED_PARAMS, 7)
    assert res.agree and res.witness is None
    assert set(res.lm_rational) == {(1, 0), (0, 5)}
    assert res.lm_rational == res.lm_modular

    witnesses = {2: (0, 1), 3: (0, 1), 5: (0, 1), 11: (0, 1), 13: (0, 3)}
    for p, w in witnesses.items():
        res = lm_agreement_test(inst, 1, WORKED_PARAMS, p)
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
            res = lm_agreement_test(inst.with_order(order), 1, WORKED_PARAMS, p)
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
    # and the Rabinowitz generator collapses to the constant 1, so they
    # and 1 minus it lie in the (prime) ideal of the component
    for inst, spaces in ((example_monomial_system(), None),
                         (alt_system(), 3)):
        i = min(2, inst.n - 1)
        params = draw_parameters(i, inst.n, inst.r, QQ, seed=5, qrange=(-9, 9))
        sat = build_saturated_system(inst, params)
        E = sat.ring
        for space in inst.base_locus[:spaces]:
            ideal = buchberger([E.coerce(eq) for eq in space])
            for g in sat.generators[params.i:-1]:
                assert ideal.contains(g)
            assert ideal.contains(E.one() - sat.generators[-1])


def test_permutation_invariance_of_modal_count():
    inst = example_monomial_system()
    flipped = ProblemInstance("flipped", inst.ring,
                              tuple(reversed(inst.polys)), inst.base_locus)

    def modal(problem):
        counts = Counter(compute_gi(problem, 1, F32003, split_seed(11, t)).value
                         for t in range(12))
        return counts.most_common(1)[0][0]

    assert modal(inst) == modal(flipped) == 5


def basis_digest(gb) -> str:
    return hashlib.sha256(json.dumps(polys_to_json(list(gb))).encode()).hexdigest()


# sha256 of polys_to_json of the reduced alt g7 and g6 bases, per prime,
# at seed 2024 and the benchmark's two split seeds
ALT_BASIS_DIGESTS = {
    32771: (
        ("eb97a304fa831c0c3741e33f17e00ac1cd2b5dbe948341c7125ec71bc42b493b",
         "d765b7e8053ab3611564e3b027695827bf62028fede48aed33d9fb86468a018b"),
        ("d22e1e9b98f7f53b34fe50112b321f01ca9663d4867c41c9cc9bfb72276fe138",
         "24742dc5910680dfd1ddcbcd20062ace8b6b9bbd8a44de70cf7274528a223a36"),
        ("3df09a79d65e0295abff52c6c9cd917de3756062a6fb768d94f6130464c844c0",
         "70232af94eaa5a6b6eb6c003d2d03c149242408b1632774b8db22f18e1f39c70"),
    ),
    1073741789: (
        ("f95da0eeac8b2ed8b0f5802f929f74d72804eb9a7f88d585ed237ffbe54c5b90",
         "93fd79964c67335433678a78e081c95d6a97b33252c1a9a864284119dcf58b8f"),
        ("5e253919c271d26f18082f30368db1fc69b51dfc9a19b8fe88a9b5dbd2f05ebe",
         "5dc592d37cb9c1afb911d034b8b1d2ba975ecd37cde70add7f106a50d9b990dc"),
        ("2c52d9d4c731ea2baef47c02699c2bd2facac1a9fabdc76318545c9d2d202fc3",
         "a8db38f9467d5c4ec121ed34e1bc48593894b453de291acad54ccde6da2acc70"),
    ),
}


@pytest.mark.parametrize("p", (32771, 1073741789))
def test_alt_cell_engine_counts(p):
    # the F4 batches of the alt g7/g6 cells, pinned at seed 2024 and the
    # benchmark's two split seeds: (i, S-pairs reduced, to zero, matrices,
    # pairs left when the certificate stopped the loop, linear generators
    # set aside, variables left)
    alt, field = alt_system(), prime_field(p)
    for k, seed in enumerate((2024, split_seed(2024, 1), split_seed(2024, 2))):
        for i, spairs, zero, matrices, certified, linear, nvars, pairs in (
                (7, 12, 2, 9, 2, 7, 2, (25, 10, 1)),
                (6, 137, 54, 20, 25, 6, 3, (1260, 1059, 39))):
            params = draw_parameters(i, alt.n, alt.r, field, seed)
            gb = buchberger(build_saturated_system(alt, params).generators)
            assert basis_digest(gb) == ALT_BASIS_DIGESTS[p][k][7 - i]
            st = gb.stats
            assert (st.spairs_reduced, st.zero_reductions) == (spairs, zero)
            assert st.matrices == matrices
            assert (st.pairs_certified, st.certificates) == (certified, 1)
            assert st.matrix_rows > spairs and st.matrix_columns > 0
            assert (st.linear_set_aside, st.reduced_nvars) == (linear, nvars)
            assert st.width == 8
            # pairs created, pruned by the new-pair criteria, by the chain
            # criterion; every pair created was pruned, reduced or left
            # to the certificate
            assert (st.pairs_created, st.pairs_pruned_new,
                    st.pairs_pruned_chain) == pairs
            assert st.pairs_created == (st.pairs_pruned_new + st.pairs_pruned_chain
                                        + spairs + certified)


@pytest.mark.parametrize("p", (32771, 1073741789))
def test_alt_g6_replays_give_the_pinned_bases_and_counts(p):
    # a trace learned at seed 2024 replays the two split seeds, each
    # certified on its own draw: the same bases and S-pair, zero-row,
    # matrix and certificate counts as full F4
    alt, field, trace = alt_system(), prime_field(p), F4Trace()
    for k, seed in enumerate((2024, split_seed(2024, 1), split_seed(2024, 2))):
        params = draw_parameters(6, alt.n, alt.r, field, seed)
        gb = buchberger(build_saturated_system(alt, params).generators, trace)
        assert trace.last == ("replayed" if k else "learned")
        assert basis_digest(gb) == ALT_BASIS_DIGESTS[p][k][1]
        st = gb.stats
        assert (st.spairs_reduced, st.zero_reductions, st.matrices,
                st.pairs_certified, st.certificates) == (137, 54, 20, 25, 1)
        assert st.pairs_created == (st.pairs_pruned_new
                                    + st.pairs_pruned_chain + 137 + 25)


# the same digests of the conics g0..g5 bases over F_32003 at seed 2024
CONICS_BASIS_DIGESTS = (
    "4252f787fe8d2b261fd3e62e9955c0ef518856b4f3bf0e94cc1604a77017a17e",
    "09ca1da56d9b9be18f5e87d0518c0bca9ce2dd4026e152093c3276b1adcf213c",
    "9eb3f1010b1aba8bb64d8a9173ace79e67402921a5aa595c8693aa0dfed6cac5",
    "3fa68c4ba3505818f41fa038708a892124b8ff90a6dd4e4d100cf4f9d02efd7f",
    "53c031a65e8d6ced7903a5570db53bb5f74fd898cffa2c42578c857d77cfcca2",
    "ce85e31ab7b661a0e5b5e65986a9382a1e863056e8c4916111ee67cae811aa2c",
)


def test_conics_bases_pinned():
    conics = conics_affine_system()
    for i, digest in enumerate(CONICS_BASIS_DIGESTS):
        params = draw_parameters(i, conics.n, conics.r, F32003, 2024)
        gb = buchberger(build_saturated_system(conics, params).generators)
        assert basis_digest(gb) == digest


def test_linear_slice_is_substituted_not_reduced(monkeypatch):
    # the linear slice is eliminated by substitution and the final
    # interreduction runs in the remaining variables, so no normal form
    # sees the nonlinear alt g6 generators (239 and 240 terms in nine
    # variables) before the slice is gone
    sizes = []
    nf = groebner._nf_packed

    def counted(f, *args):
        sizes.append(len(f))
        return nf(f, *args)

    monkeypatch.setattr(groebner, "_nf_packed", counted)
    alt = alt_system()
    params = draw_parameters(6, alt.n, alt.r, prime_field(32771), 2024)
    gb = buchberger(build_saturated_system(alt, params).generators)
    assert basis_digest(gb) == ALT_BASIS_DIGESTS[32771][0][1]
    assert sizes and max(sizes) <= 100


def reference_standard_monomials(basis, d_max):
    """Depth-first search over every variable, for comparison."""
    lms = basis.leading_monomials
    n = basis.ring.nvars
    found, exps = [], [0] * n

    def visit(var, total):
        if var == n:
            found.append(tuple(exps))
            return
        e = 0
        while d_max is None or total + e <= d_max:
            exps[var] = e
            if any(all(a <= b for a, b in zip(lm, exps)) for lm in lms):
                break
            visit(var + 1, total + e)
            e += 1
        exps[var] = 0

    visit(0, 0)
    return found


def test_standard_monomials_skip_linear_leads():
    alt, conics = alt_system(), conics_affine_system()
    bases = []
    for i in (7, 6):
        params = draw_parameters(i, alt.n, alt.r, prime_field(32771), 2024)
        bases.append(buchberger(build_saturated_system(alt, params).generators))
    for i in range(len(CONICS_BASIS_DIGESTS)):
        params = draw_parameters(i, conics.n, conics.r, F32003, 2024)
        bases.append(buchberger(build_saturated_system(conics, params).generators))
    # a pure linear lead, and one that divides another lead
    R = PolyRing(("x", "y", "z"), F32003)
    bases.append(buchberger([R.parse("x - y"), R.parse("y^3 - z"),
                             R.parse("z^2 - 1")]))
    bases.append(GroebnerBasis(R, tuple(R.parse(t) for t in
                                        ("x + 1", "x*y^2", "y^3", "z^2"))))
    # a lex basis, the unit ideal, and leads y^2, x*y, x^2 that leave z free
    L = PolyRing(("x", "y", "z"), F32003, LEX)
    bases.append(buchberger([L.parse("x^2 + y*z - 1"), L.parse("x*y - z^2"),
                             L.parse("y^2 - x*z")]))
    unit = buchberger([R.parse("x*y - 1"), R.parse("x")])
    bases.append(unit)
    bases.append(buchberger([R.parse("x*y - z"), R.parse("y^2 - x")]))
    linear_leads = 0
    for gb in bases:
        linear_leads += any(sum(m) == 1 for m in gb.leading_monomials)
        caps = list(range(-1, 5))
        if is_zero_dimensional(gb):
            caps.append(None)
        for d_max in caps:
            assert standard_monomials(gb, d_max) == sorted(
                reference_standard_monomials(gb, d_max), key=gb.ring.key)
    assert linear_leads >= 8
    assert unit.is_unit and standard_monomials(unit, None) == []
    assert standard_monomials(bases[-1], -1) == []
    assert not is_zero_dimensional(bases[-1])
