"""Exact coefficient arithmetic: word-sized prime fields and rationals.

Prime-field elements are canonical residues stored as plain ints;
rationals are stdlib Fractions (lowest terms, positive denominator).
Each field has one converter, element(c), which maps an int or a
Fraction to its canonical element and raises TypeError on anything
else; PolyRing.poly sums coefficients with plain + and canonicalises
every sum through it.  Every field also answers .p: the prime for F_p,
None for Q.  Hot kernels (Groebner normal forms, the F_p echelon) take
that modulus instead of a field object and do plain number arithmetic,
reducing mod p only where a coefficient must be canonical.

The remaining methods (add/sub/mul/neg/inv/div, from_int,
from_fraction, to_str/from_str) are the few-coefficient API for code
that handles a coefficient or two at a time.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

MODULUS_BITS = 62  # products of two residues must fit comfortably in a double word


class ZeroInversion(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class DenominatorVanishes(ZeroDivisionError):
    """A rational's denominator reduces to zero mod p."""


class InvalidModulus(ValueError):
    """Prime-field modulus is composite, too small, or too wide."""


# Deterministic witness set for Miller-Rabin below 3.3e24, far past 2**62.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for word-sized n."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b = g = gcd(a, b)."""
    u0, u1 = 1, 0
    v0, v1 = 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return a, u0, v0


class PrimeField:
    """Arithmetic context for F_p, p prime and below 2**62.

    Elements are ints in [0, p-1]; the context is obtained through
    prime_field(p) so equal moduli share one instance.
    """

    __slots__ = ("p", "zero", "one")

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_probable_prime(p):
            raise InvalidModulus(f"modulus {p!r} is not prime")
        if p.bit_length() > MODULUS_BITS:
            raise InvalidModulus(f"modulus {p} exceeds {MODULUS_BITS} bits")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    @property
    def descriptor(self) -> str:
        return f"Fp:{self.p}"

    def add(self, a, b):
        c = a + b
        return c - self.p if c >= self.p else c

    def sub(self, a, b):
        c = a - b
        return c + self.p if c < 0 else c

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return self.p - a if a else 0

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroInversion(f"0 has no inverse in F_{self.p}")
        g, u, _ = xgcd(a % self.p, self.p)
        # g is 1 since p is prime and a nonzero
        return u % self.p

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def element(self, c) -> int:
        """The canonical residue of an int or a Fraction."""
        if isinstance(c, int):
            return c % self.p
        if isinstance(c, Fraction):
            return reduce_rational_mod_p(c, self.p)
        raise TypeError(f"coefficient {c!r} is not an int or a Fraction")

    def from_int(self, n: int):
        return n % self.p

    def from_fraction(self, q: Fraction):
        return reduce_rational_mod_p(q, self.p)

    def to_str(self, a) -> str:
        return str(a)

    def from_str(self, s: str):
        if "/" in s:
            return self.from_fraction(Fraction(s))
        return int(s) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField:
    """Arithmetic context for exact rationals."""

    __slots__ = ("zero", "one")
    p = None  # no modulus: kernels taking .p run exact rational arithmetic

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    @property
    def descriptor(self) -> str:
        return "Q"

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroInversion("0 has no inverse in Q")
        return Fraction(1, a)

    def div(self, a, b):
        if not b:
            raise ZeroInversion("0 has no inverse in Q")
        return Fraction(a, b)

    def element(self, c) -> Fraction:
        """c as a Fraction; c must be an int or a Fraction."""
        if isinstance(c, Fraction):
            return c
        if isinstance(c, int):
            return Fraction(c)
        raise TypeError(f"coefficient {c!r} is not an int or a Fraction")

    def from_int(self, n: int):
        return Fraction(n)

    def from_fraction(self, q: Fraction):
        return q

    def to_str(self, a) -> str:
        return str(a)

    def from_str(self, s: str):
        return Fraction(s)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "RationalField()"


QQ = RationalField()


@lru_cache(maxsize=None)
def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_descriptor(s: str):
    """Inverse of the .descriptor property: "Q" or "Fp:<p>"."""
    if s == "Q":
        return QQ
    if s.startswith("Fp:"):
        return prime_field(int(s[3:]))
    raise ValueError(f"unknown field descriptor {s!r}")


def primitive_scale(coeffs) -> Fraction:
    """The positive rational s that makes s*c integer with content 1 over
    all of the (not all zero) rationals c: lcm of the denominators over
    gcd of the numerators.  The sign is left to the caller."""
    den, num = 1, 0
    for c in coeffs:
        den = lcm(den, c.denominator)
        num = gcd(num, c.numerator)
    return Fraction(den, num)


def reduce_rational_mod_p(q: Fraction, p: int) -> int:
    """Image of an exact rational in F_p; the denominator must not vanish."""
    den = q.denominator % p
    if den == 0:
        raise DenominatorVanishes(f"denominator of {q} vanishes mod {p}")
    num = q.numerator % p
    g, u, _ = xgcd(den, p)
    return num * (u % p) % p
