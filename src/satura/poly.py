"""Sparse multivariate polynomials over exact fields.

Monomials are exponent tuples; a polynomial is an immutable list of
(monomial, coefficient) terms sorted strictly descending under the
ring's active order.  Coefficients are canonical field elements (a
residue in [0, p) or a Fraction) and only PolyRing.poly makes them: it
sums like monomials with plain +, maps each sum through field.element
and drops zeros.  Arithmetic, scaling, constants, coercion and linear
combinations (PolyRing.combine) all hand it their raw terms.  The text
grammar and the sparse JSON layout round trip bit-exactly through
parse_polynomial / print_polynomial and polys_to_json / polys_from_json.
"""

from fractions import Fraction

from .arith import field_from_descriptor

Monomial = tuple


class RingMismatch(ValueError):
    """Operands live in different rings."""


class DimensionMismatch(ValueError):
    """An exponent vector or point has the wrong length."""


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownVariable(ParseError):
    def __init__(self, name: str, pos: int):
        ParseError.__init__(self, f"unknown variable {name!r}", pos)
        self.name = name


class GrevLex:
    """Graded reverse lexicographic; ties broken against the last variables."""

    name = "grevlex"
    degree_compatible = True

    @staticmethod
    def key(m):
        return (sum(m), tuple(-e for e in reversed(m)))

    def __repr__(self):
        return "GREVLEX"


class Lex:
    """Pure lexicographic; earlier variables dominate regardless of degree."""

    name = "lex"
    degree_compatible = False

    @staticmethod
    def key(m):
        return m

    def __repr__(self):
        return "LEX"


GREVLEX = GrevLex()
LEX = Lex()
_ORDERS = {"grevlex": GREVLEX, "lex": LEX}


def order_from_name(name: str):
    try:
        return _ORDERS[name]
    except KeyError:
        raise ValueError(f"unknown monomial order {name!r}") from None


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a divides b."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_degree(m: Monomial) -> int:
    return sum(m)


def evaluate_monomials(point, monomials, field) -> tuple:
    """The value of each monomial at the point, as field elements."""
    mod = field.p
    row = []
    for m in monomials:
        v = field.one
        for x, e in zip(point, m):
            if e:
                v = v * pow(x, e, mod) % mod if mod else v * x ** e
        row.append(v)
    return tuple(row)


class PolyRing:
    """A polynomial ring: variable names, coefficient field, monomial order."""

    __slots__ = ("vars", "field", "order", "key", "_index")

    def __init__(self, variables, field, order=GREVLEX):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        if not variables:
            raise ValueError("at least one variable is required")
        for v in variables:
            if not v.isidentifier():
                raise ValueError(f"variable name {v!r} is not an identifier")
        self.vars = variables
        self.field = field
        self.order = order
        self.key = order.key
        self._index = {v: i for i, v in enumerate(variables)}

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def poly(self, terms) -> "Polynomial":
        """The polynomial of (monomial, coefficient) pairs or a dict:
        like monomials summed, each sum made a field element (ints and
        Fractions only, else TypeError), zeros dropped, sorted descending.
        An exponent that is not a non-negative int raises ValueError."""
        n = self.nvars
        checked = []
        for m, c in terms.items() if isinstance(terms, dict) else terms:
            m = tuple(m)
            if len(m) != n:
                raise DimensionMismatch(
                    f"exponent vector of length {len(m)}, expected {n}")
            if not all(type(e) is int and e >= 0 for e in m):
                raise ValueError(f"exponent vector {m} needs non-negative ints")
            checked.append((m, c))
        return self._canonical(checked)

    def _canonical(self, terms, ordered=False) -> "Polynomial":
        """poly() for terms whose monomials are known to fit the ring.
        ordered=True promises distinct monomials in descending order, so
        nothing is summed or sorted."""
        if not ordered:
            acc = {}
            for m, c in terms:
                c0 = acc.get(m)
                acc[m] = c if c0 is None else c0 + c
            terms = [(m, acc[m]) for m in sorted(acc, key=self.key, reverse=True)]
        element = self.field.element
        out = []
        for m, c in terms:
            c = element(c)
            if c:
                out.append((m, c))
        return Polynomial(self, tuple(out))

    def combine(self, coeffs, polys) -> "Polynomial":
        """sum(c * f for c, f in zip(coeffs, polys)), canonicalised once."""
        element = self.field.element
        terms = []
        for c, f in zip(coeffs, polys):
            if f.ring != self:
                raise RingMismatch(f"{f.ring!r} vs {self!r}")
            c = element(c)
            if c:
                terms += [(m, c * a) for m, a in f.terms]
        return self._canonical(terms)

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def const(self, c) -> "Polynomial":
        return self._canonical((((0,) * self.nvars, c),), ordered=True)

    def one(self) -> "Polynomial":
        return self.const(1)

    def var(self, name: str) -> "Polynomial":
        i = self._index.get(name)
        if i is None:
            raise KeyError(f"no variable {name!r} in ring")
        m = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((m, self.field.one),))

    def gens(self) -> list:
        return [self.var(v) for v in self.vars]

    def monomial(self, m: Monomial, c=1) -> "Polynomial":
        return self.poly([(m, c)])

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(text, self)

    def extend(self, *names: str) -> "PolyRing":
        return PolyRing(self.vars + names, self.field, self.order)

    def with_field(self, field) -> "PolyRing":
        return PolyRing(self.vars, field, self.order)

    def with_order(self, order) -> "PolyRing":
        return PolyRing(self.vars, self.field, order)

    def coerce(self, f: "Polynomial") -> "Polynomial":
        """Map f into this ring.

        The source variables must be a positional prefix of this ring's;
        rational coefficients are reduced when the target is a prime field.
        """
        src = f.ring
        if src == self:
            return f
        if src.vars != self.vars[: len(src.vars)]:
            raise RingMismatch(
                f"variables {src.vars} are not a prefix of {self.vars}")
        if src.field.p is not None and src.field != self.field:
            raise RingMismatch(
                f"no coercion from {src.field.descriptor} to {self.field.descriptor}")
        pad = (0,) * (self.nvars - len(src.vars))
        return self._canonical([(m + pad, c) for m, c in f.terms])

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.vars == self.vars
                and other.field == self.field
                and other.order.name == self.order.name)

    def __hash__(self):
        return hash((self.vars, self.field, self.order.name))

    def __repr__(self):
        names = ",".join(self.vars)
        return f"PolyRing({names}; {self.field.descriptor}; {self.order.name})"


class Polynomial:
    """Immutable sparse polynomial; construct through PolyRing.poly."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def lm(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def lc(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def lt(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        if self.ring.order.degree_compatible:
            return mono_degree(self.terms[0][0])
        return max(mono_degree(m) for m, _ in self.terms)

    def monic(self) -> "Polynomial":
        return self.scale(self.ring.field.inv(self.lc())) if self.terms else self

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return self + self.ring.const(other)
        self._check(other)
        return self.ring._canonical(self.terms + other.terms)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return self - self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        return self.ring._canonical([(mono_mul(m1, m2), c1 * c2)
                                     for m1, c1 in self.terms
                                     for m2, c2 in other.terms])

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = self.ring.field.element(c)  # nonzero c keeps the term order
        return self.ring._canonical([(m, c * a) for m, a in self.terms], ordered=True)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if other == 0:
                return not self.terms
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, self.terms))

    def evaluate(self, point):
        """Value at a point given as a sequence of field elements."""
        if len(point) != self.ring.nvars:
            raise DimensionMismatch(
                f"point of length {len(point)}, expected {self.ring.nvars}")
        field = self.ring.field
        values = evaluate_monomials(point, [m for m, _ in self.terms], field)
        total = sum((c * v for (_, c), v in zip(self.terms, values)), field.zero)
        return total % field.p if field.p else total

    def permute_vars(self, sigma) -> "Polynomial":
        """Exponent shuffle: source variable i becomes variable sigma[i]."""
        n = self.ring.nvars
        terms = []
        for m, c in self.terms:
            new = [0] * n
            for i, e in enumerate(m):
                new[sigma[i]] = e
            terms.append((tuple(new), c))
        return self.ring.poly(terms)

    def __str__(self):
        return print_polynomial(self)

    def __repr__(self):
        return f"<{print_polynomial(self)}>"


def exact_degree_monomials(n: int, deg: int):
    """All exponent tuples of n variables and total degree deg, generated
    recursively with the first exponent ascending."""
    if n == 1:
        yield (deg,)
        return
    for e in range(deg + 1):
        for rest in exact_degree_monomials(n - 1, deg - e):
            yield (e,) + rest


def monomials_up_to_degree(n: int, d: int) -> list:
    """All exponent tuples of total degree <= d, grevlex descending."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    return sorted((m for deg in range(d + 1)
                   for m in exact_degree_monomials(n, deg)),
                  key=GREVLEX.key, reverse=True)


# --- text format ----------------------------------------------------------
#
# poly   := ['+'|'-'] term (('+'|'-') term)*
# term   := coeff ('*' factor)* | factor ('*' factor)*
# factor := var ('^' uint)? | '(' poly ')' ('^' uint)?
# coeff  := uint ('/' uint)?

def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, ring: PolyRing):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse_poly(self) -> Polynomial:
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        result = self.parse_term().scale(sign)
        while self.peek()[0] in "+-":
            op = self.take()[0]
            t = self.parse_term()
            result = result - t if op == "-" else result + t
        return result

    def parse_term(self) -> Polynomial:
        kind, _, _ = self.peek()
        if kind == "int":
            result = self.ring.const(self.parse_coeff())
        else:
            result = self.parse_factor()
        while self.peek()[0] == "*":
            self.take()
            result = result * self.parse_factor()
        return result

    def parse_coeff(self) -> Fraction:
        num = int(self.take("int")[1])
        if self.peek()[0] == "/":
            self.take()
            den = int(self.take("int")[1])
            if den == 0:
                raise ParseError("zero denominator", self.peek()[2])
            return Fraction(num, den)
        return Fraction(num)

    def parse_factor(self) -> Polynomial:
        kind, text, pos = self.peek()
        if kind == "name":
            self.take()
            if text not in self.ring._index:
                raise UnknownVariable(text, pos)
            base = self.ring.var(text)
        elif kind == "(":
            self.take()
            base = self.parse_poly()
            self.take(")")
        else:
            raise ParseError(f"expected a variable or '(', found {text!r}", pos)
        if self.peek()[0] == "^":
            self.take()
            exp = int(self.take("int")[1])
            base = base**exp
        return base


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    parser = _Parser(_tokenize(text), ring)
    result = parser.parse_poly()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return result


def _monomial_str(ring: PolyRing, m: Monomial) -> str:
    parts = []
    for name, e in zip(ring.vars, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def print_polynomial(f: Polynomial) -> str:
    """Canonical text form; parse_polynomial inverts it exactly."""
    if not f.terms:
        return "0"
    ring = f.ring
    rational = ring.field.p is None
    one = ring.field.one
    pieces = []
    for k, (m, c) in enumerate(f.terms):
        mono = _monomial_str(ring, m)
        negative = rational and c < 0
        mag = -c if negative else c
        if not mono:
            body = str(mag)
        elif mag == one:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if k == 0:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


# --- sparse JSON layout ---------------------------------------------------

def polys_to_json(polys, ring: PolyRing = None) -> dict:
    """{"vars": [...], "field": "Q"|"Fp:<p>", "polys": [[[coeff, [e...]], ...], ...]}"""
    if ring is None:
        if not polys:
            raise ValueError("need a ring when the list is empty")
        ring = polys[0].ring
    for f in polys:
        if f.ring != ring:
            raise RingMismatch("mixed rings in JSON export")
    return {
        "vars": list(ring.vars),
        "field": ring.field.descriptor,
        "polys": [[[str(c), list(m)] for m, c in f.terms] for f in polys],
    }


def polys_from_json(obj: dict, order=GREVLEX):
    """Inverse of polys_to_json; returns (ring, list of polynomials).
    Coefficients go through field.from_str and exponents through
    PolyRing.poly, so a malformed one raises ValueError."""
    try:
        names = obj["vars"]
        field = field_from_descriptor(obj["field"])
        raw = obj["polys"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed polynomial JSON: {exc}") from None
    ring = PolyRing(names, field, order)
    polys = []
    for entry in raw:
        if not isinstance(entry, list):
            raise ValueError(f"polynomial {entry!r} is not a list of terms")
        terms = []
        for term in entry:
            if not isinstance(term, list):
                raise ValueError(f"term {term!r} is not a [coefficient, exponents] list")
            coeff, exps = term
            if not isinstance(exps, list):
                raise ValueError(f"exponent vector {exps!r} is not a list")
            terms.append((exps, field.from_str(coeff)))
        polys.append(ring.poly(terms))
    return ring, polys
