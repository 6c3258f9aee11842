"""Exact evaluation of the luckiness and success probability bounds.

Everything here is big-integer or big-rational arithmetic; no floats.
Quantities like ((p-1)/p)^nu at p ~ 2^55, nu ~ 7.6e9 cannot be held
exactly, so past a configurable bit budget the result degrades to a
rigorous enclosure [lo, hi] built from Bernoulli's inequality and
(1-1/p)^p >= 1/4, both one-sided and exact.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, prod
from typing import Optional


def bezout_bound(degrees) -> int:
    """Product of the total degrees; bounds the count of isolated zeros."""
    degrees = tuple(degrees)
    if not degrees or any(d < 1 for d in degrees):
        raise ValueError("degrees must be a non-empty positive list")
    return prod(degrees)


@dataclass(frozen=True)
class BoundsInput:
    """Inputs shared by the degree and probability formulas.

    g_upper is any upper bound on the count the trial targets; the
    paper-scale runs use the computed ideal degree or a coarse cap.
    """

    n: int
    r: int
    d_min: int
    d_max: int
    deg_v: int
    g_upper: int
    p: Optional[int] = None
    nu: Optional[int] = None

    def __post_init__(self):
        if min(self.n, self.r, self.d_min, self.d_max) < 1:
            raise ValueError("n, r, d_min, d_max must be positive")
        if self.d_min > self.d_max:
            raise ValueError("d_min exceeds d_max")
        if self.deg_v < 1:
            raise ValueError("deg_v must be at least 1")
        if self.g_upper < 0:
            raise ValueError("g_upper must be non-negative")

    @classmethod
    def from_system(cls, degrees, n: int, g_upper: int,
                    p: Optional[int] = None, nu: Optional[int] = None):
        degrees = tuple(degrees)
        return cls(n=n, r=len(degrees), d_min=min(degrees), d_max=max(degrees),
                   deg_v=bezout_bound(degrees), g_upper=g_upper, p=p, nu=nu)

    def resolved_nu(self) -> int:
        return self.nu if self.nu is not None else nu_upper_bound(self.g_upper, self.n)


def discriminant_degree_bound(inp: BoundsInput) -> int:
    """2^n (D_min + (r+n) D_max) deg(V), exactly."""
    return (1 << inp.n) * (inp.d_min + (inp.r + inp.n) * inp.d_max) * inp.deg_v


def nu_upper_bound(deg_ideal: int, n: int) -> int:
    """C(deg + n + 1, n + 1): number of coefficients a basis element of
    the saturated ideal can have, hence a cap on the bad-prime count."""
    if deg_ideal < 0:
        raise ValueError("deg_ideal must be non-negative")
    return comb(deg_ideal + n + 1, n + 1)


@dataclass(frozen=True)
class ProbabilityBound:
    lo: Fraction
    hi: Fraction
    exact: bool  # lo == hi == the true value

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi <= 1:
            raise ValueError("bound outside [0, 1]")

    def __str__(self):
        if self.exact:
            return f"{float(self.lo):.10f} (exact)"
        return f"[{float(self.lo):.10f}, {float(self.hi):.10f}]"


# beyond this many bits the exact power is pointless to carry around
_DEFAULT_BIT_BUDGET = 1 << 17
# largest exponent worth spending on the (1/4)^ceil(nu/p) fallback
_QUARTER_CAP = 2048


def lucky_probability_lower_bound(p: int, nu: int,
                                  bit_budget: int = _DEFAULT_BIT_BUDGET) -> ProbabilityBound:
    """((p-1)/p)^nu: chance that a random prime of size ~p is lucky.

    Exact when the numerator fits the bit budget; otherwise the
    enclosure lo = max(1 - nu/p, (1/4)^ceil(nu/p)) and hi = p/(p + nu),
    both rigorous.  Composing this with a caller-supplied base
    probability gives the rational-to-modular transfer bound.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if nu < 0:
        raise ValueError("nu must be non-negative")
    if nu == 0:
        one = Fraction(1)
        return ProbabilityBound(one, one, True)
    if nu * p.bit_length() <= bit_budget:
        v = Fraction(p - 1, p) ** nu
        return ProbabilityBound(v, v, True)
    lo = Fraction(max(0, p - nu), p)
    e = -(-nu // p)  # ceil
    if e <= _QUARTER_CAP:
        alt = Fraction(1, 4) ** e
        if alt > lo:
            lo = alt
    hi = Fraction(p, p + nu)
    return ProbabilityBound(lo, hi, False)


def success_probability_lower_bound(inp: BoundsInput,
                                    bit_budget: int = _DEFAULT_BIT_BUDGET) -> ProbabilityBound:
    """((p-1)/p)^nu * (1 - (g + disc_bound)/p), clamped to [0, 1]."""
    if inp.p is None:
        raise ValueError("p is required")
    numerator = inp.g_upper + discriminant_degree_bound(inp)
    factor = 1 - Fraction(numerator, inp.p)
    if factor <= 0:
        zero = Fraction(0)
        return ProbabilityBound(zero, zero, True)
    lucky = lucky_probability_lower_bound(inp.p, inp.resolved_nu(), bit_budget)
    clamp = lambda x: min(max(x, Fraction(0)), Fraction(1))
    return ProbabilityBound(clamp(lucky.lo * factor), clamp(lucky.hi * factor),
                            lucky.exact)


def min_prime_exponent(inp: BoundsInput, target: Fraction) -> int:
    """Smallest k with success_probability_lower_bound >= target at
    p = 2^k (a size proxy; 2^k itself need not be prime).

    The lower bound is monotone in p, so exponential growth followed by
    binary search settles it.
    """
    target = Fraction(target)
    if not 0 < target < 1:
        raise ValueError("target must be strictly between 0 and 1")

    def ok(k: int) -> bool:
        probe = replace(inp, p=1 << k, nu=inp.resolved_nu())
        return success_probability_lower_bound(probe, bit_budget=0).lo >= target

    hi = 1
    while not ok(hi):
        hi *= 2
        if hi > 1 << 20:
            raise ValueError("no feasible exponent below 2^20")
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class BoundsReport:
    input: BoundsInput
    discriminant_degree_bound: int
    nu_upper_bound: int
    lucky_probability: Optional[ProbabilityBound]
    success_probability: Optional[ProbabilityBound]
    min_prime_exponent: Optional[int]

    def to_dict(self) -> dict:
        fmt = lambda b: None if b is None else {
            "lo": str(b.lo), "hi": str(b.hi), "exact": b.exact,
            "lo_float": float(b.lo), "hi_float": float(b.hi)}
        return {
            "n": self.input.n, "r": self.input.r,
            "d_min": self.input.d_min, "d_max": self.input.d_max,
            "deg_v": self.input.deg_v, "g_upper": self.input.g_upper,
            "p": self.input.p, "nu": self.input.resolved_nu(),
            "discriminant_degree_bound": self.discriminant_degree_bound,
            "nu_upper_bound": self.nu_upper_bound,
            "lucky_probability": fmt(self.lucky_probability),
            "success_probability": fmt(self.success_probability),
            "min_prime_exponent": self.min_prime_exponent,
        }


def bounds_report(inp: BoundsInput,
                  target: Optional[Fraction] = None) -> BoundsReport:
    """Everything the formulas yield for one input, in one pass."""
    nu = inp.resolved_nu()
    lucky = success = None
    if inp.p is not None:
        lucky = lucky_probability_lower_bound(inp.p, nu)
        success = success_probability_lower_bound(inp)
    k = min_prime_exponent(inp, target) if target is not None else None
    return BoundsReport(inp, discriminant_degree_bound(inp), nu, lucky, success, k)
