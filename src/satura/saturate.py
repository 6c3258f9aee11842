"""Randomized saturation: count solutions lying outside the base locus.

For a system f = (f_1..f_r) in n variables and 0 <= i <= n-1, the ideal

    I_i(Theta, Lambda, mu) = < Theta.x - 1,  Lambda.f,  1 - (mu.f) T >

in the ring extended by one fresh variable T is zero-dimensional for a
general draw, and the quotient dimension g_i counts the degree-i part of
the solution set away from Var-of-all-combinations.  Everything here is
exact; chance enters only through the drawn matrices, so results are
reproducible from the 64-bit seed.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import field_from_descriptor, prime_field, primitive_scale
from .groebner import buchberger, quotient_basis
from .poly import Polynomial


class PrimeTooSmall(ValueError):
    """p must be at least 5 and exceed every coefficient magnitude."""


class GeneratorVanishesModP(ValueError):
    """An integer-primitive generator reduced to zero mod p."""


_SPLIT_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> int:
    z = (state + _SPLIT_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def split_seed(seed: int, trial: int) -> int:
    """Per-trial seed: independent of scheduling order, so parallel and
    serial runs agree."""
    return splitmix64((seed & _MASK64) ^ splitmix64(trial))


@dataclass(frozen=True)
class SaturationParameters:
    """One draw of (Theta, Lambda, mu) for a fixed i.

    mu=None omits the Rabinowitz generator entirely, which is only
    useful for ideals studied without the saturation part (the
    leading-monomial agreement test exercises this).
    """

    i: int
    theta: tuple          # i rows of length n
    lam: tuple            # n-i rows of length r
    mu: Optional[tuple]   # length r, or None
    field: str            # field descriptor the entries live in
    rng_seed: Optional[int] = None

    def check_shape(self, n: int, r: int) -> None:
        from .poly import DimensionMismatch

        if len(self.theta) != self.i or any(len(row) != n for row in self.theta):
            raise DimensionMismatch(f"theta must be {self.i}x{n}")
        if len(self.lam) != n - self.i or any(len(row) != r for row in self.lam):
            raise DimensionMismatch(f"lambda must be {n - self.i}x{r}")
        if self.mu is not None and len(self.mu) != r:
            raise DimensionMismatch(f"mu must have length {r}")


def draw_parameters(i: int, n: int, r: int, field, seed: int,
                    qrange=(-99, 99), include_mu: bool = True) -> SaturationParameters:
    """Uniform draw in row-major order: theta, then lambda, then mu.

    Over F_p entries cover the whole field; over the rationals they are
    integers from qrange.
    """
    if not 0 <= i <= n - 1:
        raise ValueError(f"i must lie in [0, {n - 1}], got {i}")
    rng = random.Random(seed)
    if field.p is not None:
        pick = lambda: rng.randrange(field.p)
    else:
        lo, hi = qrange
        pick = lambda: Fraction(rng.randint(lo, hi))
    theta = tuple(tuple(pick() for _ in range(n)) for _ in range(i))
    lam = tuple(tuple(pick() for _ in range(r)) for _ in range(n - i))
    mu = tuple(pick() for _ in range(r)) if include_mu else None
    return SaturationParameters(i, theta, lam, mu, field.descriptor, seed)


@dataclass(frozen=True)
class SaturatedSystem:
    generators: tuple
    parameters: SaturationParameters
    source: object  # the ProblemInstance the combinations came from

    @property
    def ring(self):
        return self.generators[0].ring


def build_saturated_system(f, params: SaturationParameters) -> SaturatedSystem:
    """Assemble < theta.x - 1, lambda.f, 1 - (mu.f) T > deterministically.

    T goes last so it is the least variable under grevlex and the
    x-monomial order is undisturbed.
    """
    n, r = f.n, f.r
    params.check_shape(n, r)
    ring = f.ring.with_field(field_from_descriptor(params.field))
    if params.mu is not None:
        ring = ring.extend("T")
    polys = [ring.coerce(g) for g in f.polys]
    affine = ring.gens()[:n] + [ring.one()]
    gens = [ring.combine((*row, -1), affine) for row in params.theta]
    gens += [ring.combine(row, polys) for row in params.lam]
    if params.mu is not None:
        h = ring.combine(params.mu, polys)
        gens.append(ring.one() - h * ring.var("T"))
    return SaturatedSystem(tuple(gens), params, f)


@dataclass(frozen=True)
class GiResult:
    value: int
    i: int
    field: str
    parameters: SaturationParameters
    elapsed: float
    basis_size: int
    unit: bool = False  # value 0 realized as the unit ideal


def max_coefficient_magnitude(polys) -> Fraction:
    m = Fraction(0)
    for f in polys:
        for _, c in f.terms:
            a = abs(c)
            if a > m:
                m = a
    return m


def _check_prime_size(field, polys) -> None:
    if field.p is not None:
        bound = max(Fraction(4), max_coefficient_magnitude(polys))
        if field.p <= bound:
            raise PrimeTooSmall(
                f"p = {field.p} must be at least 5 and exceed the largest "
                f"coefficient magnitude {bound}")


def compute_gi(f, i: int, field, seed: int, qrange=(-99, 99)) -> GiResult:
    """One randomized g_i evaluation.

    Degenerate draws raise NotZeroDimensional rather than retrying; the
    trial harness counts them.  A unit ideal is a valid outcome with
    value 0 and is flagged instead of raised.
    """
    if isinstance(field, str):
        field = field_from_descriptor(field)
    _check_prime_size(field, f.polys)
    params = draw_parameters(i, f.n, f.r, field, seed, qrange)
    system = build_saturated_system(f, params)
    start = time.perf_counter()
    basis = buchberger(system.generators)
    value = len(quotient_basis(basis))
    elapsed = time.perf_counter() - start
    return GiResult(value, i, field.descriptor, params, elapsed,
                    len(basis), basis.is_unit)


def integer_primitive(f: Polynomial) -> Polynomial:
    """Rescale over Q to integer coefficients with content 1 and a
    positive leading coefficient."""
    if f.ring.field.p is not None:
        raise ValueError("integer_primitive expects a rational polynomial")
    if f.is_zero():
        return f
    scale = primitive_scale(c for _, c in f.terms)
    if f.lc() < 0:
        scale = -scale
    return f.scale(scale)


@dataclass(frozen=True)
class AgreementResult:
    agree: bool
    prime: int
    witness: Optional[tuple]   # monomial in exactly one of the two sets
    lm_rational: tuple
    lm_modular: tuple

    def __str__(self) -> str:
        if self.agree:
            return f"Agree(p={self.prime})"
        return f"Disagree(p={self.prime}, witness={self.witness})"


def lm_agreement_test(f, i: int, params: SaturationParameters, p: int,
                      order=None) -> AgreementResult:
    """Compare leading-monomial sets of the reduced basis over Q and
    over F_p on the same integer-primitive generators.

    Disagreement certifies p unlucky for this ideal; agreement is
    supporting evidence only.
    """
    if field_from_descriptor(params.field).p is not None:
        raise ValueError("parameters must be rational for the agreement test")
    # no minimum-size gate here: probing deliberately small unlucky primes
    # is the whole point of the test
    fp = prime_field(p)
    if order is not None:
        f = f.with_order(order)
    system = build_saturated_system(f, params)
    prim = [integer_primitive(g) for g in system.generators]
    ring_p = system.ring.with_field(fp)
    gens_p = []
    for g in prim:
        gp = ring_p.coerce(g)
        if gp.is_zero():
            raise GeneratorVanishesModP(f"{g} is 0 mod {p}")
        gens_p.append(gp)
    lm_q = set(buchberger(prim).leading_monomials)
    lm_p = set(buchberger(gens_p).leading_monomials)
    diff = lm_q ^ lm_p
    witness = min(diff, key=system.ring.key) if diff else None
    return AgreementResult(not diff, p, witness,
                           tuple(sorted(lm_q, key=system.ring.key)),
                           tuple(sorted(lm_p, key=system.ring.key)))


def degree_profile(f):
    """(per-generator total degrees, D_min, D_max) of the expanded system."""
    polys = f.polys if hasattr(f, "polys") else tuple(f)
    degs = tuple(g.degree() for g in polys)
    return degs, min(degs), max(degs)
