"""The saturated system built packed, against the path it replaces.

`compute_gi` and the `hilbert_table` rows hand `packed_leading_ideal` a
system packed straight from the draw.  Before, they built it from
`Polynomial`s with `PolyRing.combine` and packed those.  The tests check
that the engine's inputs after the Gauss-Jordan and the substitution
are the same dicts either way, that `build_saturated_system` still
gives the polynomials of the old build, and that the counts build no
polynomial.
"""

from fractions import Fraction

import pytest

from satura import groebner
from satura.arith import QQ, field_from_descriptor, prime_field
from satura.groebner import ideal_degree
from satura.harness import hilbert_table
from satura.poly import GREVLEX, LEX, PolyRing, Polynomial
from satura.problems import (alt_system, conics_affine_system,
                             example_monomial_system)
from satura.saturate import (SaturationParameters, build_saturated_system,
                             compute_gi, draw_parameters,
                             saturated_leading_ideal, split_seed)

SEEDS = (2024, split_seed(2024, 1), split_seed(2024, 2))
F32003 = prime_field(32003)


class _Sliced(Exception):
    """Stops the engine once the slice is substituted."""


def packed_inputs(problem, params, monkeypatch):
    """What `_slice` returns inside `saturated_leading_ideal`, at 8-bit
    exponent fields: (linear, substituted), or None for the unit ideal."""
    seen = []
    real = groebner._slice

    def spy(work, mod, full):
        seen.append(real(work, mod, full))
        raise _Sliced

    with monkeypatch.context() as m:
        m.setattr(groebner, "_slice", spy)
        with pytest.raises(_Sliced):
            saturated_leading_ideal(problem, params)
    return seen[0]


def polynomial_system(f, params):
    """The system built from polynomials, as before the packed builder: f
    coerced into the ring, combined with the rows by `PolyRing.combine`."""
    ring = f.ring.with_field(field_from_descriptor(params.field))
    if params.mu is not None:
        ring = ring.extend("T")
    polys = [ring.coerce(g) for g in f.polys]
    affine = ring.gens()[:f.n] + [ring.one()]
    gens = [ring.combine((*row, -1), affine) for row in params.theta]
    gens += [ring.combine(row, polys) for row in params.lam]
    if params.mu is not None:
        h = ring.combine(params.mu, polys)
        gens.append(ring.one() - h * ring.var("T"))
    return tuple(gens)


def polynomial_inputs(problem, params):
    """The same through the polynomials: pack the system, normalise,
    Gauss-Jordan on the linear generators and substitute them.  The
    count packs in grevlex whatever the problem's order, while
    `build_saturated_system` keeps it."""
    assert (build_saturated_system(problem, params).generators
            == polynomial_system(problem, params))
    gens = polynomial_system(problem.with_order(GREVLEX), params)
    ring = gens[0].ring
    mod = ring.field.p
    codec = groebner._codec(ring.nvars, ring.order.name, 8)
    work = [groebner._to_packed(g, codec) for g in gens if not g.is_zero()]
    for d in work:
        groebner._normalize(d, mod)
    linear, rest = groebner._split_linear(work, codec)
    linear = groebner._autoreduce(linear, mod, codec)
    if any(max(d) == codec.one for d in linear):
        return None
    return linear, [groebner._substitute(d, linear, mod, codec) for d in rest]


def assert_same_inputs(problem, params, monkeypatch):
    got = packed_inputs(problem, params, monkeypatch)
    assert got == polynomial_inputs(problem, params)
    return got


def draws():
    alt, conics, mono = (alt_system(), conics_affine_system(),
                         example_monomial_system())
    for p in (32771, 1073741789):
        for i in (7, 6):
            for seed in SEEDS:
                yield alt, i, prime_field(p), seed
    for field in (F32003, QQ):
        for i in range(6):
            yield conics, i, field, 2024
        for i in (1, 0):
            for seed in SEEDS:
                yield mono, i, field, seed


@pytest.mark.parametrize("order", (GREVLEX, LEX), ids=lambda o: o.name)
def test_packed_inputs_match_polynomial_inputs(order, monkeypatch):
    for problem, i, field, seed in draws():
        problem = problem.with_order(order)
        for mu in (True, False):
            params = draw_parameters(i, problem.n, problem.r, field, seed,
                                     include_mu=mu)
            assert assert_same_inputs(problem, params, monkeypatch) is not None


@pytest.mark.parametrize("field", (F32003, QQ), ids=str)
def test_linear_lambda_row_joins_the_gauss_jordan(field, monkeypatch):
    # f_1 = x1 and f_2 = x2, so this Lambda row is the linear 3 x1 - 2 x2,
    # which is interreduced with the Theta row before the substitution
    inst = example_monomial_system()
    params = SaturationParameters(1, ((Fraction(3, 2), 5),), ((3, -2, 0, 0),),
                                  (1, 1, 1, 1), field.descriptor)
    linear, rest = assert_same_inputs(inst, params, monkeypatch)
    assert len(linear) == 2 and len(rest) == 1
    assert ideal_degree(saturated_leading_ideal(inst, params)) == 1


@pytest.mark.parametrize("field", (F32003, QQ), ids=str)
def test_vanishing_mu_gives_the_unit_ideal(field, monkeypatch):
    inst = example_monomial_system()
    base = draw_parameters(1, inst.n, inst.r, field, seed=3)
    params = SaturationParameters(1, base.theta, base.lam, (0,) * inst.r,
                                  base.field)
    assert assert_same_inputs(inst, params, monkeypatch) is None
    ideal = saturated_leading_ideal(inst, params)
    assert ideal.is_unit and ideal.leading_monomials == ((0, 0, 0),)


def test_counts_build_no_polynomial(monkeypatch):
    alt, mono = alt_system(), example_monomial_system()

    def results():
        gi = [compute_gi(alt, 7, prime_field(32771), 2024),
              compute_gi(mono, 1, QQ, 2024)]
        rows = hilbert_table(alt, [7], 32771, 8, 2024).cells
        return ([(r.value, r.basis_size, r.unit, r.stats) for r in gi],
                [{k: v for k, v in c.items() if k != "elapsed"} for c in rows])

    before = results()

    def refuse(*args, **kwargs):
        raise AssertionError("a Polynomial was built")

    monkeypatch.setattr(PolyRing, "_canonical", refuse)
    monkeypatch.setattr(PolyRing, "combine", refuse)
    monkeypatch.setattr(Polynomial, "__init__", refuse)
    with pytest.raises(AssertionError):
        mono.ring.combine((1,), mono.polys[:1])
    with pytest.raises(AssertionError):
        build_saturated_system(mono, draw_parameters(1, 2, 4, QQ, 1))
    assert results() == before
    assert [v[0] for v in before[0]] == [7, 5]
    assert before[1][0]["value"] == [1, 3, 6, 7, 7, 7, 7, 7, 7]
