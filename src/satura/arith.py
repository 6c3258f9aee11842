"""Exact coefficient arithmetic: word-sized prime fields and rationals.

Prime-field elements are canonical residues stored as plain ints;
rationals are stdlib Fractions (lowest terms, positive denominator).
Each field has one converter, element(c), which maps an int or a
Fraction to its canonical element and raises TypeError on anything
else; PolyRing.poly sums coefficients with plain + and canonicalises
every sum through it.  Every field also answers .p: the prime for F_p,
None for Q.  Hot kernels (Groebner normal forms, the echelon) take
that modulus instead of a field object and do plain number arithmetic,
reducing mod p only where a coefficient must be canonical.

Besides .p, .zero, .one and .descriptor, a field answers only
element(c), inv(a) and from_str(s).  from_str reads a coefficient
from outside (an int or a decimal string, as the JSON layout has it)
through element and raises ValueError on anything else.
"""

import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import add, mul

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


class _Field:
    __slots__ = ()

    def from_str(self, s):
        """The element written s: an int, or a decimal string such as
        "3" or "-7/3".  Floats, bools, None and lists, an unreadable
        string and a denominator that vanishes mod p raise ValueError."""
        if isinstance(s, bool) or not isinstance(s, (int, str)):
            raise ValueError(f"coefficient {s!r} is not an integer or a string")
        try:
            return self.element(Fraction(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"coefficient {s!r}: {exc}") from None


class PrimeField(_Field):
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

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroInversion(f"0 has no inverse in F_{self.p}")
        return pow(a, -1, self.p)

    def element(self, c) -> int:
        """The canonical residue of an int or a Fraction."""
        if isinstance(c, int):
            return c % self.p
        if isinstance(c, Fraction):
            den = c.denominator % self.p
            if den == 0:
                raise DenominatorVanishes(f"denominator of {c} vanishes mod {self.p}")
            return c.numerator * pow(den, -1, self.p) % self.p
        raise TypeError(f"coefficient {c!r} is not an int or a Fraction")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField(_Field):
    """Arithmetic context for exact rationals."""

    __slots__ = ("zero", "one")
    p = None  # no modulus: kernels taking .p run exact rational arithmetic

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    @property
    def descriptor(self) -> str:
        return "Q"

    def inv(self, a):
        if not a:
            raise ZeroInversion("0 has no inverse in Q")
        return Fraction(1, a)

    def element(self, c) -> Fraction:
        """c as a Fraction; c must be an int or a Fraction."""
        if isinstance(c, Fraction):
            return c
        if isinstance(c, int):
            return Fraction(c)
        raise TypeError(f"coefficient {c!r} is not an int or a Fraction")

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


_ITEM = {c: array(c).itemsize for c in "BHIQ"}
_BIG_ENDIAN = sys.byteorder == "big"


class PackedEchelon:
    """Row echelon form over F_p of rows packed into single ints.

    Column k of a row is the `width`-bit slot k of the int, and a row's
    leading column is its highest nonzero slot, so a caller numbers its
    columns so that the leading one ranks highest.  A pivot row is monic
    and stored as its tail, slots reduced mod p.  One step against pivot
    tail t for pending leading entry c adds (p - c) * t and drops the top
    slot: one C-level multiply-add on the whole row.  Slots never go
    negative.  A row enters with slots below p^2 (residues, or a residue
    row plus p - 1 times another) and takes at most ncols steps that add
    less than p^2 each, so its slots stay below (ncols + 1) p^2: a width
    of 2*bitlen(p) + bitlen(ncols) + 2 bits keeps every slot below
    2^width and no carry crosses into the next slot.  Slots are reduced
    mod p only when read.  `pack` writes a residue as one item of a typed
    array whose items hold p, so the width is rounded up to whole items
    of that size (48 bits for p = 32771 and fewer than 2^14 columns, 96
    bits for p = 1073741789); `slots` reads a slot's q items back and
    folds them with their place values mod p.
    """

    __slots__ = ("p", "ncols", "code", "q", "nbytes", "width", "pivots",
                 "places")

    def __init__(self, p: int, ncols: int):
        self.p, self.ncols = p, ncols
        # a residue is written as the lowest of the slot's q array items
        self.code = next(c for c in "BHIQ" if p <= 1 << 8 * _ITEM[c])
        u = _ITEM[self.code]
        nbytes = (2 * p.bit_length() + ncols.bit_length() + 2 + 7) // 8
        self.q = -(-nbytes // u)
        self.nbytes = u * self.q
        self.width = 8 * self.nbytes
        self.places = [pow(2, 8 * u * t, p) for t in range(self.q)]
        self.pivots = {}   # leading column -> packed tail of the monic row

    def pack(self, terms, index=None, shift=0) -> int:
        """The row holding residue c in column k for each (k, c) of terms,
        or with an index in column index[k + shift]; each column once."""
        q = self.q
        row = array(self.code, bytes(self.nbytes * self.ncols))
        if index is None:
            for k, c in terms:
                row[k * q] = c
        else:
            for k, c in terms:
                row[index[k + shift] * q] = c
        if _BIG_ENDIAN:
            row.byteswap()
        return int.from_bytes(row, "little")

    def pack_residues(self, values) -> int:
        """The row whose slot k holds values[k], each a residue."""
        row = array(self.code, bytes(self.nbytes * len(values)))
        row[::self.q] = array(self.code, values)
        if _BIG_ENDIAN:
            row.byteswap()
        return int.from_bytes(row, "little")

    def residues(self, row: int, n: int) -> array:
        """Slots 0..n-1 of a row whose slots are residues."""
        items = array(self.code, row.to_bytes(self.nbytes * n, "little"))
        if _BIG_ENDIAN:
            items.byteswap()
        return items[::self.q]

    def slots(self, row: int) -> list:
        """Every slot of a row reduced mod p, from slot 0 up to its
        highest nonzero one."""
        q, p = self.q, self.p
        n = -(-row.bit_length() // self.width)
        items = array(self.code, row.to_bytes(self.nbytes * n, "little"))
        if _BIG_ENDIAN:
            items.byteswap()
        acc = items[::q]
        for t in range(1, q):
            acc = map(add, acc, map(mul, items[t::q], repeat(self.places[t])))
        return [x % p for x in acc]

    def entries(self, row: int) -> list:
        """(column, residue) of the nonzero slots of a row, ascending."""
        return [(k, c) for k, c in enumerate(self.slots(row)) if c]

    def insert(self, row: int):
        """Reduce a packed row against the pivots; register it monic and
        return its leading column, or None when it vanishes."""
        p, w, pivots = self.p, self.width, self.pivots
        while row:
            k = (row.bit_length() - 1) // w
            s = k * w
            v = row >> s
            row -= v << s
            c = v % p
            if not c:
                continue
            tail = pivots.get(k)
            if tail is None:
                inv = pow(c, -1, p)
                pivots[k] = self.pack_residues(
                    [x * inv % p for x in self.slots(row)])
                return k
            row += (p - c) * tail
        return None

    def reduce(self, entries) -> list:
        """Full reduction: the row of (column, residue) entries, each
        column at most once, with every pivot column cleared, not only the
        top one, as (column, residue) entries, ascending.  The pivot tails
        must hold no pivot column, as they do once each was packed from
        this in ascending column order."""
        p, pivots = self.p, self.pivots
        free, acc = [], 0
        for k, c in entries:
            tail = pivots.get(k)
            if tail is None:
                free.append((k, c))
            else:
                acc += (p - c) * tail
        return self.entries(self.pack(free) + acc)


def primitive_scale(coeffs) -> Fraction:
    """The positive rational s that makes s*c integer with content 1 over
    all of the (not all zero) rationals c: lcm of the denominators over
    gcd of the numerators.  The sign is left to the caller."""
    den, num = 1, 0
    for c in coeffs:
        den = lcm(den, c.denominator)
        num = gcd(num, c.numerator)
    return Fraction(den, num)
