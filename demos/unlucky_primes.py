"""
Catching unlucky primes red-handed
==================================

Reducing an exact rational computation mod p is safe for almost every
prime, but "almost" does real work in that sentence.  The worked ideal
below has reduced Groebner bases whose leading monomials differ mod
2, 3, 5, 11 and 13 from the rational answer; 7 is innocent.  The test
needs no discriminant machinery: compute both bases, compare leading
monomials, and any mismatch convicts the prime.
"""

from fractions import Fraction

from satura import LEX, SaturationParameters, integer_primitive, lm_agreement_test
from satura.problems import example_monomial_system
from satura.saturate import build_saturated_system

inst = example_monomial_system().with_order(LEX)

# one slicing row and one combination row, rigged with denominators
# divisible by each prime we want to probe
params = SaturationParameters(
    1,
    ((Fraction(3, 2), Fraction(2, 3)),),
    ((Fraction(7, 5), Fraction(9, 11), Fraction(-5, 13), Fraction(13, 17)),),
    None,
    "Q",
)

system = build_saturated_system(inst, params)
print("integer-primitive generators:")
for g in system.generators:
    print("   ", integer_primitive(g))

for p in (2, 3, 5, 7, 11, 13):
    res = lm_agreement_test(inst, 1, params, p)
    if res.agree:
        print(f"p={p:>2}: {res}  (evidence only, not a certificate)")
    else:
        print(f"p={p:>2}: {res}")
        print(f"        LM over Q:    {list(res.lm_rational)}")
        print(f"        LM over F_{p}: {list(res.lm_modular)}")

# Disagreement certifies a prime unlucky; agreement merely fails to
# convict.  The probability module quantifies how rare conviction is
# once p is large.
