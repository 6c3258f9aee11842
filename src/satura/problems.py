"""Built-in polynomial systems and their declared base loci.

Three families ship with the package: a two-variable monomial toy
system, the plane-conics interpolation system on the affine patch, and
the four-bar coupler-curve system in isotropic coordinates (barred
variables carry a ``b`` suffix: ab is the conjugate of a).

The coupler system is transcribed from factored expressions; the
conjugation involution and the 7*15 base-locus vanishing identities in
verify_base_locus exist to catch transcription slips, so run them after
touching anything here.
"""

from dataclasses import dataclass, field as dfield
from functools import lru_cache

from .arith import QQ, primitive_scale
from .groebner import buchberger
from .poly import GREVLEX, PolyRing, Polynomial


@dataclass(frozen=True)
class ProblemInstance:
    """A system f_1..f_r over Q together with its known base locus X.

    base_locus lists linear spaces, each given by linear equations; the
    union of the spaces is exactly Var(f).  conj_pairs records the
    involution j -> sigma(j) on 1-based indices when one exists.
    """

    name: str
    ring: PolyRing
    polys: tuple
    base_locus: tuple = ()
    conj_pairs: dict = dfield(default_factory=dict)

    @property
    def r(self) -> int:
        return len(self.polys)

    @property
    def n(self) -> int:
        return self.ring.nvars

    def degrees(self) -> tuple:
        return tuple(f.degree() for f in self.polys)

    def with_order(self, order) -> "ProblemInstance":
        """The same instance with its polynomials and base locus re-sorted
        under another monomial order."""
        if order.name == self.ring.order.name:
            return self
        ring = self.ring.with_order(order)
        locus = tuple(tuple(ring.coerce(g) for g in space)
                      for space in self.base_locus)
        return ProblemInstance(self.name, ring,
                               tuple(ring.coerce(f) for f in self.polys),
                               locus, self.conj_pairs)


def _check_primitive(f: Polynomial) -> Polynomial:
    """f itself when its coefficients are integers with content 1."""
    if f.is_zero() or primitive_scale(c for _, c in f.terms) != 1:
        raise ValueError(f"transcription {f} is not integer with content 1")
    return f


@lru_cache(maxsize=None)
def example_monomial_system() -> ProblemInstance:
    """Four monomials in two variables; the base locus is the origin."""
    R = PolyRing(("x1", "x2"), QQ, GREVLEX)
    polys = tuple(R.parse(s) for s in ("x1", "x2", "x1*x2^2", "x1^3*x2^2"))
    locus = ((R.parse("x1"), R.parse("x2")),)
    return ProblemInstance("monomial-example", R, polys, locus)


_CONICS_F = (
    "1",
    "a1",
    "a2",
    "a3",
    "a4",
    "a3*b1",
    "a3*b2",
    "a4*b1",
    "a4*b2",
    "a1*b1 - 2*b2",
    "a1*b2 - 2*a2*b1",
    "b1*(a4*b1 - a3*b2)",
    "b2*(a4*b1 - a3*b2)",
    "a2*b1^2 - a1*b1*b2 + b2^2",
)


@lru_cache(maxsize=None)
def conics_affine_system() -> ProblemInstance:
    """Coefficient system for conics through the intersection of a cubic
    pencil, on the affine patch; its common zero set is empty."""
    R = PolyRing(("a1", "a2", "a3", "a4", "b1", "b2"), QQ, GREVLEX)
    polys = tuple(_check_primitive(R.parse(s)) for s in _CONICS_F)
    return ProblemInstance("conics-affine", R, polys, ())


# Specialization matrix used for the worked Hilbert-function replication.
PSTAR = (
    (1, -2, 2, -4, -4, -5, -3, 1, -1, -1, -2, -3, 1, -5),
    (0, 0, 3, 4, 5, -1, -3, -4, -5, -5, 4, -1, -5, -4),
    (-5, -4, -1, 0, -5, -3, -4, 4, -3, 4, -1, -4, -3, 2),
    (-2, 1, -5, 5, 3, 3, -4, 1, -4, 5, -4, -4, -2, 3),
    (-4, -3, -3, -5, 3, -1, 4, -2, -3, 0, 3, 5, 4, 2),
    (3, 2, 5, -1, 4, 5, 1, 0, -3, 0, -1, 5, -5, -1),
)


def conics_pstar_system() -> list:
    """The six fixed combinations PSTAR * F of the conics system."""
    inst = conics_affine_system()
    return [inst.ring.combine(row, inst.polys) for row in PSTAR]


# 18 quadratic-column monomials that select an invertible submatrix for
# the conics certification system.
CONICS_CERT_MONOMIALS = (
    "a1", "a2", "a3", "a4", "b1", "b2",
    "a1*b1", "a1*b2", "a2*a4", "a2*b2", "a3^2", "a3*a4",
    "a3*b1", "a3*b2", "a4*b1", "b1^2", "b1*b2", "b2^2",
)


def conics_certification_monomials() -> list:
    R = conics_affine_system().ring
    return [R.parse(s).lm() for s in CONICS_CERT_MONOMIALS]


_ALT_VARS = ("a", "ab", "b", "bb", "x", "xb", "y", "yb")
_ALT_SWAP = (1, 0, 3, 2, 5, 4, 7, 6)

_ALT_F = {
    1: "(x - y)*(yb - xb)",
    2: "(x - y)*(ab*xb - 2*ab*yb + 2*bb*xb - bb*yb)",
    4: "(x - y)*(ab^2*yb - 2*ab*bb*xb + 2*ab*bb*yb - bb^2*xb)",
    6: "ab*bb*(x - y)*(bb*xb - ab*yb)",
    8: "x^2*yb*(ab - yb) + xb^2*y*(a - y)"
       " + x*xb*(2*y*yb + (ab - 2*bb)*y + (a - 2*b)*yb"
       " - a*ab - 2*a*bb - 2*ab*b - 2*b*bb)"
       " + x*(b*yb^2 + y*yb*(bb - 2*ab) + yb*(a*ab + a*bb + 4*ab*b + b*bb))"
       " - y*yb*(2*a*ab + 2*a*bb + 2*ab*b + b*bb)"
       " + xb*(bb*y^2 + y*yb*(b - 2*a) + y*(a*ab + ab*b + 4*a*bb + b*bb))",
    9: "ab*x^2*yb*(2*yb - ab - bb) + 2*bb*xb^2*y*(y - a)"
       " - ab*x*yb*(a*bb + 2*ab*(b - y) + 2*b*(bb + yb))"
       " + x*xb*(bb*(2*bb*y + 2*a*ab + 2*ab*b + a*bb)"
       " + yb*(ab + bb)*(2*b - a - 2*y))"
       " + ab*y*yb*(2*a*bb + ab*b + 2*b*bb)"
       " + xb*y*((2*a*yb - 2*a*bb - b*yb - bb*y)*(ab + bb) - ab*b*bb)",
    11: "ab^2*x^2*yb*(bb - yb) + bb^2*xb^2*y*(a - y)"
        " - ab*bb*x*xb*(a*(bb - yb) + 2*yb*(b - y) + bb*y)"
        " + ab^2*x*yb*(b*bb + b*yb - bb*y)"
        " + ab*bb*xb*y*(bb*(a + y) + yb*(b - 2*a))"
        " - ab^2*b*bb*y*yb",
    13: "ab*x^2*yb*(ab*(2*b - y) + b*(bb - 3*yb) + bb*y)"
        " + a*xb^2*y*(a*(2*bb - yb) + bb*(b - 3*y) + b*yb)"
        " + x*xb*(bb*y^2*(ab - bb) + 3*y*yb*(a*bb + ab*b) + b*yb^2*(a - b)"
        " - bb*y*(ab*b + 2*a*bb) - b*yb*(a*bb + 2*ab*b) - 2*a*ab*b*bb)"
        " + ab*x*yb*(a*(b*bb + b*yb - bb*y) + b*(ab*(b - 2*y) + 2*b*yb))"
        " + a*xb*y*(ab*(b*bb - b*yb + bb*y) + bb*(a*(bb - 2*yb) + 2*bb*y))"
        " - 2*a*ab*b*bb*y*yb",
    14: "(ab*b*x*yb - a*bb*xb*y)"
        "*((ab - xb)*(bb*y - b*yb) + (bb - yb)*(a*xb - ab*x))",
}

# involution on indices: conj(f_j) = f_sigma(j)
ALT_CONJ_PAIRS = {1: 1, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6, 8: 8,
                  9: 10, 10: 9, 11: 12, 12: 11, 13: 13, 14: 15, 15: 14}

_ALT_BASE_LOCUS = (
    ("x", "y"),
    ("x - y", "x - b", "a - b"),
    ("x - y", "a - b", "xb - ab", "yb - bb"),
    ("x - y", "xb - yb", "a - b", "ab - bb"),
    ("xb", "yb"),
    ("xb - yb", "xb - bb", "ab - bb"),
    ("xb - yb", "ab - bb", "x - a", "y - b"),
)


def alt_conj(f: Polynomial) -> Polynomial:
    """Swap every variable with its barred partner."""
    return f.permute_vars(_ALT_SWAP)


@lru_cache(maxsize=None)
def alt_system() -> ProblemInstance:
    """The 15 coupler-curve coefficient polynomials in 8 design variables.

    The base locus is a union of 7 linear spaces of degenerate linkages.
    """
    R = PolyRing(_ALT_VARS, QQ, GREVLEX)
    polys = {}
    for j, text in _ALT_F.items():
        polys[j] = R.parse(text)
    for j, src in ((3, 2), (5, 4), (7, 6), (10, 9), (12, 11), (15, 14)):
        polys[j] = alt_conj(polys[src])
    ordered = tuple(_check_primitive(polys[j]) for j in range(1, 16))
    locus = tuple(
        tuple(R.parse(s) for s in space) for space in _ALT_BASE_LOCUS)
    return ProblemInstance("alt", R, ordered, locus, ALT_CONJ_PAIRS)


def coupler_coefficients(point, field=QQ) -> list:
    """The 15 coefficient values c_j(p, pb) attached to one curve point."""
    p, pb = point
    p2, q2 = p * p, pb * pb
    p3, q3 = p2 * p, q2 * pb
    return [field.element(c) for c in (
        p3 * q3, p3 * q2, q3 * p2, p3 * pb, q3 * p,
        p3, q3, p2 * q2, p2 * pb, q2 * p,
        p2, q2, p * pb, p, pb,
    )]


def alt_coupler_instance(points, field) -> list:
    """Specialize the coupler system at 8 curve points: returns
    G_1..G_8 over the requested field."""
    if len(points) != 8:
        raise ValueError(f"expected 8 points, got {len(points)}")
    inst = alt_system()
    ring = inst.ring.with_field(field)
    fs = [ring.coerce(f) for f in inst.polys]
    return [ring.combine(coupler_coefficients(pt, field), fs) for pt in points]


@dataclass(frozen=True)
class BaseLocusReport:
    ok: bool
    failures: tuple  # (space index, poly index), both 1-based
    checked: int


def _space_parameterization(ring: PolyRing, equations) -> list:
    """Solve the linear equations: pivot variables become polynomials in
    the free ones, so substitution sweeps the whole linear space.

    The reduced Groebner basis of linear equations is their reduced row
    echelon form: each element is x_j - (terms in free variables).
    """
    for eq in equations:
        if eq.degree() > 1:
            raise ValueError(f"{eq} is not linear")
    basis = buchberger(equations)
    if basis.is_unit:
        raise ValueError("inconsistent linear space")
    solved = {g.lm().index(1): g for g in basis}
    return [x - solved[j] if j in solved else x
            for j, x in enumerate(ring.gens())]


def verify_base_locus(inst: ProblemInstance) -> BaseLocusReport:
    """Check every f_j vanishes identically on every declared linear space."""
    failures = []
    checked = 0
    for si, space in enumerate(inst.base_locus, start=1):
        values = _space_parameterization(inst.ring, space)
        for pj, f in enumerate(inst.polys, start=1):
            checked += 1
            if not f.substitute(values).is_zero():
                failures.append((si, pj))
    return BaseLocusReport(not failures, tuple(failures), checked)


PROBLEMS = {
    "monomial-example": example_monomial_system,
    "conics-affine": conics_affine_system,
    "alt": alt_system,
}

_ALIASES = {"monomial": "monomial-example", "conics": "conics-affine"}


def get_problem(name: str) -> ProblemInstance:
    key = _ALIASES.get(name, name)
    try:
        return PROBLEMS[key]()
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; available: {', '.join(sorted(PROBLEMS))}"
        ) from None
